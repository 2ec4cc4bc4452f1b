//===- e2ebench/src/ServeWorkload.cpp - serve_mixed -----------------------===//
//
// A seldond session: service::Service started on the corpus and served
// over a Unix socket by service::SocketServer, as `seldond --socket` does.
// Reader connections run a closed loop over a seeded mix of cold queries,
// hot queries, taint requests and status; one writer connection runs an
// open loop that sends a 20-iteration warm `feedback` every 2 s, timed
// from when each was due.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"

#include "eval/Precision.h"
#include "propgraph/GraphBuilder.h"
#include "pysem/ProjectLoader.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/QueryResult.h"
#include "service/Service.h"
#include "service/SocketServer.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "taint/TaintAnalyzer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

namespace fs = std::filesystem;
using namespace seldon;

namespace e2e {
namespace {

constexpr double Threshold = 0.1;
constexpr double WriteInterval = 2.0;
constexpr int FeedbackIters = 20;

enum class ReadKind { Cold, Hot, Taint, Status };

struct ReadSample {
  ReadKind Kind;
  double Start;
  double End;
};

struct WriteSample {
  double Due;
  double Sent;
  double End;
};

std::string quote(const std::string &S) {
  return service::JsonValue::makeString(S).render();
}

std::string queryLine(uint64_t Id, const std::string &Rep,
                      propgraph::Role Role) {
  return "{\"v\":1,\"id\":" + std::to_string(Id) +
         ",\"op\":\"query\",\"rep\":" + quote(Rep) + ",\"role\":\"" +
         propgraph::roleName(Role) + "\"}";
}

/// True when \p Response is the success envelope of request \p Id.
bool isOk(const std::string &Response, uint64_t Id) {
  std::string Prefix =
      "{\"v\":1,\"id\":" + std::to_string(Id) + ",\"ok\":true,";
  return Response.compare(0, Prefix.size(), Prefix) == 0;
}

struct Target {
  std::string Rep;
  propgraph::Role Role;
};

/// The request mix, derived from the warm state once at set-up.
struct Mix {
  Target Hot;
  std::vector<Target> Cold;
  /// Feedback verdicts: target plus ground-truth accept/reject.
  std::vector<std::pair<Target, bool>> Verdicts;
  /// The taint request's "files" member, already rendered.
  std::string PayloadFiles;
  std::vector<std::pair<std::string, std::string>> Payload;
};

bool buildMix(const service::Service &Svc, const DiskCorpus &C,
              uint64_t Seed, Mix &M) {
  const infer::PipelineResult &W = Svc.warm();
  const constraints::VarTable &Vars = W.System.Vars;
  // The hot representation has the most constraints mentioning it.
  std::vector<uint32_t> Mentions(Vars.numVars(), 0);
  for (const solver::LinearConstraint &LC : W.System.Constraints) {
    for (const solver::Term &T : LC.Lhs)
      ++Mentions[T.Var];
    for (const solver::Term &T : LC.Rhs)
      ++Mentions[T.Var];
  }
  if (Mentions.empty())
    return false;
  uint32_t Hot = static_cast<uint32_t>(
      std::max_element(Mentions.begin(), Mentions.end()) - Mentions.begin());
  M.Hot = {W.Reps.repString(Vars.repOf(Hot)), Vars.roleOf(Hot)};

  // Cold representations: learned pairs (score >= threshold) with at most
  // the median mention count.
  std::vector<uint32_t> Learned;
  for (uint32_t V = 0; V < Vars.numVars(); ++V)
    if (V != Hot && W.Learned.score(W.Reps.repString(Vars.repOf(V)),
                                    Vars.roleOf(V)) >= Threshold)
      Learned.push_back(V);
  if (Learned.empty())
    return false;
  std::vector<double> Counts;
  for (uint32_t V : Learned)
    Counts.push_back(Mentions[V]);
  double Median = median(Counts);
  for (uint32_t V : Learned)
    if (Mentions[V] <= Median)
      M.Cold.push_back({W.Reps.repString(Vars.repOf(V)), Vars.roleOf(V)});

  Rng R(Seed * 0x9e3779b97f4a7c15ull + 11);
  std::vector<uint32_t> Picks = Learned;
  R.shuffle(Picks);
  for (size_t I = 0; I < Picks.size() && I < 16; ++I) {
    Target T{W.Reps.repString(Vars.repOf(Picks[I])), Vars.roleOf(Picks[I])};
    M.Verdicts.emplace_back(T, C.Truth.isTrue(T.Rep, T.Role));
  }

  std::string Files = "{";
  for (const std::string &Path : listPyFiles(C.PayloadDir)) {
    std::string Text;
    if (!readWholeFile(Path, Text))
      return false;
    std::string Name = fs::path(Path).filename().string();
    Files += (Files.size() > 1 ? "," : "") + quote(Name) + ":" + quote(Text);
    M.Payload.emplace_back(Name, std::move(Text));
  }
  M.PayloadFiles = Files + "}";
  return !M.Payload.empty();
}

std::string feedbackLine(uint64_t Id, const std::pair<Target, bool> &V) {
  return "{\"v\":1,\"id\":" + std::to_string(Id) +
         ",\"op\":\"feedback\",\"iters\":" + std::to_string(FeedbackIters) +
         (V.second ? ",\"accept\"" : ",\"reject\"") + ":[{\"rep\":" +
         quote(V.first.Rep) + ",\"role\":\"" +
         propgraph::roleName(V.first.Role) + "\"}]}";
}

/// A reader connection's closed loop: 90% cold query, 4% hot query, 5%
/// taint, 1% status, until \p End.
void readerLoop(const std::string &Socket, const Mix &M, uint64_t Seed,
                uint64_t IdBase, double End, std::vector<ReadSample> &Out,
                std::vector<std::string> &Problems, uint64_t &Attempted) {
  service::SocketClient Client;
  std::string Error;
  if (!Client.connect(Socket, Error)) {
    Problems.push_back("reader connect: " + Error);
    ++Attempted;
    return;
  }
  Rng R(Seed);
  std::string Response;
  for (uint64_t N = 0; now() < End; ++N) {
    uint64_t Id = IdBase + N;
    double U = R.nextDouble();
    ReadKind Kind;
    std::string Line;
    if (U < 0.90) {
      Kind = ReadKind::Cold;
      const Target &T = M.Cold[R.nextBelow(M.Cold.size())];
      Line = queryLine(Id, T.Rep, T.Role);
    } else if (U < 0.94) {
      Kind = ReadKind::Hot;
      Line = queryLine(Id, M.Hot.Rep, M.Hot.Role);
    } else if (U < 0.99) {
      Kind = ReadKind::Taint;
      Line = "{\"v\":1,\"id\":" + std::to_string(Id) +
             ",\"op\":\"taint\",\"files\":" + M.PayloadFiles + "}";
    } else {
      Kind = ReadKind::Status;
      Line = "{\"v\":1,\"id\":" + std::to_string(Id) + ",\"op\":\"status\"}";
    }
    static const char *SpanNames[] = {"serve.query", "serve.hot_query",
                                      "serve.taint", "serve.status"};
    double Start = now();
    bool Sent;
    {
      ScopedSpan S(tracer(), SpanNames[static_cast<int>(Kind)], -1, Id);
      Sent = Client.roundTrip(Line, Response);
    }
    double Stop = now();
    ++Attempted;
    if (!Sent || !isOk(Response, Id)) {
      Problems.push_back("read " + std::to_string(Id) + " failed: " +
                         Response.substr(0, 160));
      if (!Sent)
        return;
      continue;
    }
    Out.push_back({Kind, Start, Stop});
  }
}

/// The writer connection's open loop: a feedback every WriteInterval
/// seconds from Start + 1, each timed from its due time.
void writerLoop(const std::string &Socket, const Mix &M, double Start,
                double End, std::vector<WriteSample> &Out,
                std::vector<std::string> &Problems, uint64_t &Attempted) {
  service::SocketClient Client;
  std::string Error;
  if (!Client.connect(Socket, Error)) {
    Problems.push_back("writer connect: " + Error);
    ++Attempted;
    return;
  }
  std::string Response;
  for (uint64_t K = 0;; ++K) {
    double Due = Start + 1.0 + WriteInterval * static_cast<double>(K);
    if (Due >= End)
      break;
    double Wait = Due - now();
    if (Wait > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
    uint64_t Id = 900000000 + K;
    double Sent = now();
    bool Ok;
    {
      ScopedSpan S(tracer(), "serve.feedback", -1, Id);
      Ok = Client.roundTrip(
          feedbackLine(Id, M.Verdicts[K % M.Verdicts.size()]), Response);
    }
    double Stop = now();
    ++Attempted;
    if (!Ok || !isOk(Response, Id)) {
      Problems.push_back("feedback " + std::to_string(K) + " failed: " +
                         Response.substr(0, 160));
      if (!Ok)
        return;
      continue;
    }
    Out.push_back({Due, Sent, Stop});
  }
}

/// Runs one client loop on its own thread's stack; a failure that escapes
/// it is recorded as a failed op instead of ending the process.
template <class Fn>
void guarded(std::vector<std::string> &Problems, uint64_t &Attempted,
             Fn &&Loop) {
  try {
    Loop();
  } catch (const std::exception &E) {
    Problems.push_back(std::string("client failed: ") + E.what());
    ++Attempted;
  }
}

/// Serves on a thread for the object's lifetime; stops and joins on every
/// exit path.
class ServerThread {
public:
  explicit ServerThread(service::SocketServer &Server)
      : Server(Server), Thread([&Server] { Server.run(); }) {}
  ~ServerThread() {
    Server.stop();
    Thread.join();
  }
  ServerThread(const ServerThread &) = delete;
  ServerThread &operator=(const ServerThread &) = delete;

private:
  service::SocketServer &Server;
  std::thread Thread;
};

template <class Fn> double medianMs(int Reps, Fn &&Body) {
  std::vector<double> Ms;
  for (int I = 0; I < Reps; ++I) {
    double T0 = now();
    Body();
    Ms.push_back(1000.0 * (now() - T0));
  }
  return median(Ms);
}

} // namespace

bool runServeMixed(const RunConfig &Cfg, Outcome &Out) {
  DiskCorpus C;
  std::string Error;
  if (!materializeCorpus(Cfg, C, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  // seldond always runs with its metrics registry on.
  metrics::Registry::global().setEnabled(true);
  tracer().setOn(Cfg.Trace);

  service::Service::Options SO;
  SO.SeedFile = C.SeedPath;
  SO.CorpusDirs = C.Dirs;
  SO.Iterations = 600;
  SO.RepCutoff = 5;
  SO.Threshold = Threshold;
  SO.Jobs = Cfg.Jobs;
  SO.Backend = solver::SolverBackend::Compiled;

  // Set-up: Service::start, the daemon's cold start.
  std::unique_ptr<service::Service> Svc;
  std::vector<double> SetupSeconds;
  for (int I = 0; I < SetupsPerRun; ++I) {
    Svc.reset();
    Svc = std::make_unique<service::Service>(SO);
    double T0 = now();
    if (!Svc->start(Error)) {
      std::fprintf(stderr, "error: service start: %s\n", Error.c_str());
      return false;
    }
    SetupSeconds.push_back(now() - T0);
  }

  Mix M;
  if (!buildMix(*Svc, C, Cfg.Seed, M)) {
    std::fprintf(stderr, "error: cannot derive the request mix\n");
    return false;
  }
  const infer::PipelineResult &W = Svc->warm();
  double MacroF1 = eval::macroF1(W.Learned, C.Truth, C.Seed, Threshold);
  Out.meta("projects", static_cast<double>(C.Dirs.size()));
  Out.meta("files", static_cast<double>(C.Files));
  Out.meta("mb", C.megabytes());
  Out.meta("materialize_s", C.Seconds);
  Out.meta("constraints", static_cast<double>(W.System.Constraints.size()));
  Out.meta("rows_after_dedup", static_cast<double>(W.SolverStats.RowsAfter));
  Out.meta("backend", solver::solverBackendName(W.Backend));
  Out.meta("simd_active", W.SimdActive ? 1.0 : 0.0);
  Out.meta("hot_rep", M.Hot.Rep);
  Out.meta("cold_reps", static_cast<double>(M.Cold.size()));

  // The reference answer for the hot representation, from the same warm
  // state the socket will serve.
  service::QueryResult HotQ;
  std::string HotJson;
  double BuildMs = medianMs(5, [&] {
    HotQ = service::queryRep(W.System, W.Reps, M.Hot.Rep, M.Hot.Role,
                             W.Solve.X);
  });
  double RenderMs =
      medianMs(5, [&] { HotJson = service::renderQueryJson(HotQ); });

  // Per-layer: the same request lines handed to Service::handle directly,
  // then the taint client's two stages on the payload.
  double HandleQueryMs = 0.0;
  double TaintBuildMs = 0.0, TaintAnalyzeMs = 0.0;
  if (Cfg.Trace) {
    // The corpus load Service::start performs, timed on its own.
    double T0 = now();
    std::vector<std::optional<pysem::Project>> Loaded =
        pysem::loadProjectsFromDirs(C.Dirs, pysem::LoadOptions(), Cfg.Jobs);
    double LoadSeconds = now() - T0;
    size_t Files = 0;
    for (const std::optional<pysem::Project> &P : Loaded)
      Files += P ? P->modules().size() : 0;
    Loaded.clear();
    Out.set("pysem.load_s", LoadSeconds, "s");
    Out.set("pysem.load_mb_per_s", C.megabytes() / LoadSeconds, "MB/s");
    Out.set("pysem.files_parsed", static_cast<double>(Files), "count");

    Rng R(Cfg.Seed + 5);
    HandleQueryMs = medianMs(200, [&] {
      const Target &T = M.Cold[R.nextBelow(M.Cold.size())];
      ScopedSpan S(tracer(), "service.handle_query", -1, 1);
      Svc->handle(queryLine(1, T.Rep, T.Role));
    });
    pysem::Project Payload("payload");
    for (const auto &[Name, Text] : M.Payload)
      Payload.addModule(Name, Text);
    propgraph::PropagationGraph G;
    TaintBuildMs =
        medianMs(5, [&] { G = propgraph::buildProjectGraph(Payload); });
    taint::RoleResolver Roles(&C.Seed.Spec, &W.Learned, Threshold);
    TaintAnalyzeMs = medianMs(5, [&] {
      taint::TaintAnalyzer A(G);
      A.analyze(Roles);
    });
  }

  std::string Socket = Cfg.WorkDir + "/seldond.sock";
  ThreadPool Pool(Cfg.Jobs);
  service::SocketServer Server(*Svc, Pool, Socket);
  if (!Server.listen(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  auto Serving = std::make_unique<ServerThread>(Server);

  // Before any write: the hot query over the socket must be byte-identical
  // to renderQueryJson(queryRep(...)) on the same warm state.
  {
    service::SocketClient Client;
    std::string Response;
    std::vector<std::string> Problems;
    if (!Client.connect(Socket, Error) ||
        !Client.roundTrip(queryLine(1, M.Hot.Rep, M.Hot.Role), Response))
      Problems.push_back("hot query transport failed");
    else if (Response != service::renderOkResponse(
                             service::JsonValue::makeNumber(1), HotJson))
      Problems.push_back("hot query answer differs from queryRep");
    Out.op(Problems);
  }

  // The mixed phase. Connections: Readers + 1 writer <= nproc.
  unsigned Readers = std::max(1u, std::min(3u, Cfg.Nproc - 1));
  std::vector<std::vector<ReadSample>> Reads(Readers);
  std::vector<std::vector<std::string>> Problems(Readers + 1);
  std::vector<uint64_t> Attempts(Readers + 1, 0);
  std::vector<WriteSample> Writes;
  double Start = now();
  double End = Start + Cfg.Seconds;
  {
    std::vector<std::jthread> Threads;
    for (unsigned I = 0; I < Readers; ++I)
      Threads.emplace_back([&, I] {
        guarded(Problems[I], Attempts[I], [&] {
          readerLoop(Socket, M, Cfg.Seed * 1000003ull + I,
                     100000000ull * (I + 1), End, Reads[I], Problems[I],
                     Attempts[I]);
        });
      });
    Threads.emplace_back([&] {
      guarded(Problems[Readers], Attempts[Readers], [&] {
        writerLoop(Socket, M, Start, End, Writes, Problems[Readers],
                   Attempts[Readers]);
      });
    });
  }
  double Stop = now();

  double HandleFeedbackMs = 0.0;
  if (Cfg.Trace) {
    uint64_t K = 0;
    HandleFeedbackMs = medianMs(3, [&] {
      ScopedSpan S(tracer(), "service.handle_feedback", -1, 1);
      Svc->handle(feedbackLine(1, M.Verdicts[K++ % M.Verdicts.size()]));
    });
  }
  Serving.reset();

  // Count every request against the ops attempted.
  for (size_t I = 0; I <= Readers; ++I) {
    uint64_t Bad = std::min<uint64_t>(Problems[I].size(), Attempts[I]);
    for (uint64_t N = 0; N < Attempts[I] - Bad; ++N)
      Out.op({});
    for (uint64_t N = 0; N < Bad; ++N)
      Out.op({Problems[I][N]});
  }

  std::vector<double> Cold, ColdQuiet, ColdDuringWrite, Hot, Taint;
  size_t ReadOps = 0;
  for (const std::vector<ReadSample> &Samples : Reads)
    for (const ReadSample &S : Samples) {
      ++ReadOps;
      double Ms = 1000.0 * (S.End - S.Start);
      if (S.Kind == ReadKind::Hot)
        Hot.push_back(Ms);
      if (S.Kind == ReadKind::Taint)
        Taint.push_back(Ms);
      if (S.Kind != ReadKind::Cold)
        continue;
      Cold.push_back(Ms);
      bool Overlaps = false;
      for (const WriteSample &Wr : Writes)
        Overlaps |= S.Start < Wr.End && S.End > Wr.Sent;
      (Overlaps ? ColdDuringWrite : ColdQuiet).push_back(Ms);
    }
  std::vector<double> Feedback, Lateness;
  for (const WriteSample &Wr : Writes) {
    Feedback.push_back(1000.0 * (Wr.End - Wr.Due));
    Lateness.push_back(1000.0 * (Wr.Sent - Wr.Due));
  }
  double ReadOpsPerS = static_cast<double>(ReadOps) / (Stop - Start);
  double LatenessMax =
      Lateness.empty() ? 0.0
                       : *std::max_element(Lateness.begin(), Lateness.end());

  Out.set("setup_s", median(SetupSeconds), "s", SetupSeconds.size());
  Out.set("op_p50_ms", median(Cold), "ms", Cold.size());
  Out.set("peak_rss_mb", peakRssMb(), "MB");
  Out.set("macro_f1", MacroF1, "ratio");
  // The serve figures under their own names, for both runs.
  const std::pair<const char *, const char *> Names[] = {
      {"query_p50_ms", "serve.query_p50_ms"},
      {"query_p99_ms", "serve.query_p99_ms"},
      {"hot_query_p50_ms", "serve.hot_query_p50_ms"},
      {"taint_p50_ms", "serve.taint_p50_ms"},
      {"feedback_p50_ms", "serve.feedback_p50_ms"},
      {"read_ops_per_s", "serve.read_ops_per_s"},
      {"writer_lateness_ms", "serve.writer_lateness_ms"}};
  const double Values[] = {median(Cold),      quantile(Cold, 0.99),
                           median(Hot),       median(Taint),
                           median(Feedback),  ReadOpsPerS,
                           LatenessMax};
  const size_t Samples[] = {Cold.size(),     Cold.size(),   Hot.size(),
                            Taint.size(),    Feedback.size(), ReadOps,
                            Lateness.size()};
  for (size_t I = 0; I < std::size(Names); ++I) {
    std::string Unit = I == 5 ? "1/s" : "ms";
    Out.set(Cfg.Trace ? Names[I].second : Names[I].first, Values[I], Unit,
            Samples[I]);
  }
  Out.meta("readers", static_cast<double>(Readers));
  Out.meta("writer_lateness_p50_ms", median(Lateness));
  Out.meta("writer_lateness_max_ms", LatenessMax);

  if (!Cfg.Trace)
    return true;
  Out.set("service.handle_query_ms_p50", HandleQueryMs, "ms", 200);
  Out.set("service.handle_feedback_ms_p50", HandleFeedbackMs, "ms", 3);
  Out.set("service.transport_ms_p50", median(ColdQuiet) - HandleQueryMs,
          "ms", ColdQuiet.size());
  Out.set("service.read_wait_ms_p99",
          ColdDuringWrite.empty()
              ? 0.0
              : quantile(ColdDuringWrite, 0.99) - median(ColdQuiet),
          "ms", ColdDuringWrite.size());
  Out.set("service.query_build_ms", BuildMs, "ms", 5);
  Out.set("service.query_render_ms", RenderMs, "ms", 5);
  Out.set("service.query_resp_kb", static_cast<double>(HotJson.size()) / 1e3,
          "KB");
  Out.set("taint.build_ms", TaintBuildMs, "ms", 5);
  Out.set("taint.analyze_ms", TaintAnalyzeMs, "ms", 5);
  return true;
}

} // namespace e2e
