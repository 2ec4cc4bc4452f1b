//===- tools/seldond.cpp - Long-lived inference daemon --------------------===//
//
// The `seldond` daemon: load a corpus once, keep the propagation graph,
// constraint system, and learned specification warm, and answer protocol
// requests (see docs/architecture.md "The inference service") without
// ever re-parsing the corpus.
//
//   seldond --socket /tmp/seldond.sock [options] DIR...
//       Serve the line-delimited JSON protocol on a Unix domain socket.
//
//   seldond --once [options] DIR...
//       Serve one request per stdin line, response per stdout line, until
//       EOF or a `shutdown` request — the transport-free mode tests and
//       scripts drive.
//
//   printf '{"v":1,"id":1,"op":"status"}\n' | seldond --once corpus/
//
//===----------------------------------------------------------------------===//

#include "SharedFlags.h"

#include "service/Service.h"
#include "service/SocketServer.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

using namespace seldon;

namespace {

/// SIGTERM/SIGINT handling: the handler only stores an atomic flag and
/// calls SocketServer::stop() (an atomic store plus ::shutdown — both
/// async-signal-safe). Handlers are installed without SA_RESTART, so the
/// blocking stdin read of --once mode wakes with EINTR instead of riding
/// out the signal. The drain, the final snapshot, and the socket-file
/// unlink all run in normal context after the serve loop returns — an
/// orderly `kill` is a clean shutdown, not a crash.
std::atomic<service::SocketServer *> ActiveServer{nullptr};
std::atomic<bool> SignalStop{false};

extern "C" void onTermSignal(int) {
  SignalStop.store(true, std::memory_order_release);
  if (service::SocketServer *S =
          ActiveServer.load(std::memory_order_acquire))
    S->stop();
}

void installSignalHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onTermSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // No SA_RESTART: blocking reads must wake.
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

struct DaemonOptions {
  service::Service::Options Svc;
  std::string SocketPath;
  bool Once = false;
  unsigned long MaxInFlight = 64;
  bool Help = false;
};

/// Registers seldond's own flags; SharedFlags registers the ones it
/// shares with `seldon`.
void registerFlags(ArgParser &Parser, DaemonOptions &Opts) {
  Parser
      .string("--socket", &Opts.SocketPath, "PATH",
              "serve on a Unix domain socket at PATH")
      .flag("--once", &Opts.Once,
            "serve stdin/stdout serially instead of a socket")
      .string("--state-dir", &Opts.Svc.StateDir, "DIR",
              "durable state: journal every accepted feedback/learn op\n"
              "(fsynced before the re-solve), snapshot the served spec,\n"
              "and recover the exact pre-crash state on restart")
      .decimal("--deadline-s", &Opts.Svc.RequestDeadlineSeconds, "S",
               "default per-request wall-clock budget in seconds\n"
               "(0 = unlimited; requests may override via deadline_s)")
      .unsignedInt("--max-inflight", &Opts.MaxInFlight, "N",
                   "admission slots; excess requests get a structured\n"
                   "`overloaded` error (default 64)")
      .flag("--help", &Opts.Help, "show this help");
}

void usage() {
  DaemonOptions Opts;
  ArgParser Parser;
  registerFlags(Parser, Opts);
  std::fprintf(stderr,
               "usage: seldond (--socket PATH | --once) [options] DIR...\n"
               "\n"
               "Loads the repositories once, keeps the learned "
               "specification warm,\n"
               "and serves versioned JSON requests (one per line): status, "
               "query,\n"
               "learn, feedback, taint, shutdown.\n"
               "\n"
               "options:\n%s\n%s",
               Parser.usage().c_str(), SharedFlags::usage().c_str());
}

/// Checks seldond's own flags; false after printing the error.
bool checkDaemonArgs(DaemonOptions &Opts) {
  if (Opts.Svc.RequestDeadlineSeconds < 0.0) {
    std::fprintf(stderr, "error: --deadline-s must be non-negative\n");
    return false;
  }
  if (Opts.MaxInFlight == 0) {
    std::fprintf(stderr, "error: --max-inflight must be positive\n");
    return false;
  }
  Opts.Svc.MaxInFlight = static_cast<size_t>(Opts.MaxInFlight);
  return true;
}

/// The `--once` transport: one request per stdin line, one response per
/// stdout line, flushed eagerly so a driving script can interleave.
int runOnce(service::Service &Svc) {
  std::string Line;
  // A SIGTERM/SIGINT interrupts the blocking read (no SA_RESTART), the
  // stream fails, and the loop exits into the orderly shutdown path.
  while (!SignalStop.load(std::memory_order_acquire) &&
         std::getline(std::cin, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    std::string Response = Svc.serve(Line);
    std::fputs(Response.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
    if (Svc.shuttingDown())
      break;
  }
  return 0;
}

int runSocket(service::Service &Svc, const std::string &SocketPath) {
  ThreadPool Pool(Svc.options().Jobs);
  service::SocketServer Server(Svc, Pool, SocketPath);
  std::string Error;
  if (!Server.listen(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "seldond: listening on %s\n", SocketPath.c_str());
  // Publish the server for the signal handler; a SIGTERM from here on
  // drives stop() → drain → the normal return path below (which removes
  // the socket file and lets main() write the final snapshot).
  ActiveServer.store(&Server, std::memory_order_release);
  if (SignalStop.load(std::memory_order_acquire))
    Server.stop(); // Signal raced the publication; don't serve forever.
  size_t Connections = Server.run();
  ActiveServer.store(nullptr, std::memory_order_release);
  std::fprintf(stderr, "seldond: served %zu connection(s), draining\n",
               Connections);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Opts;
  ArgParser Parser;
  SharedFlags Shared(Parser, Opts.Svc);
  registerFlags(Parser, Opts);
  if (!Parser.parse(Argc, Argv, 1, &Opts.Svc.CorpusDirs) || !Shared.check() ||
      !checkDaemonArgs(Opts))
    return 1;
  if (Opts.Help) {
    usage();
    return 0;
  }
  if (!Opts.Once && Opts.SocketPath.empty()) {
    std::fprintf(stderr, "error: need --socket PATH or --once\n");
    usage();
    return 1;
  }
  if (Opts.Once && !Opts.SocketPath.empty()) {
    std::fprintf(stderr, "error: --once and --socket are exclusive\n");
    return 1;
  }
  if (Opts.Svc.CorpusDirs.empty()) {
    std::fprintf(stderr, "error: no corpus directories\n");
    usage();
    return 1;
  }
  if (!configureFaults())
    return 1;

  // Always on: metrics are write-only (they never change an answer) and
  // the `status` op reports parse/cache counters from this registry —
  // that's how the smoke test proves warm queries re-parse nothing.
  metrics::Registry::global().setEnabled(true);

  service::Service Svc(Opts.Svc);
  std::string Error;
  if (!Svc.start(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const infer::PipelineResult &Warm = Svc.warm();
  std::fprintf(stderr,
               "seldond: warm — %zu project(s), %zu file(s), %zu "
               "constraint(s), spec size %zu, health %s\n",
               Opts.Svc.CorpusDirs.size(), Warm.Graph->files().size(),
               Warm.System.Constraints.size(), Warm.Learned.size(),
               infer::runStatusName(Warm.status()));

  installSignalHandlers();

  int Rc;
  try {
    Rc = Opts.Once ? runOnce(Svc) : runSocket(Svc, Opts.SocketPath);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    Rc = 1;
  }
  // Orderly shutdown (EOF, `shutdown` request, or SIGTERM/SIGINT): write
  // the final snapshot so restart recovers without replaying the journal.
  Svc.persist();
  if (SignalStop.load(std::memory_order_acquire))
    std::fprintf(stderr, "seldond: terminated by signal, state persisted\n");
  if (!Shared.emitMetrics() && Rc == 0)
    Rc = 1;
  return Rc;
}
