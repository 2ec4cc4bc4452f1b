//===- e2ebench/src/Main.cpp - End-to-end benchmark entry point -----------===//
//
//   seldon_e2e --workload learn_cold|relearn_incr|serve_mixed --seed N
//              --seconds S --trace 0|1 [--projects N]
//
// Generates a seeded corpus on disk under .bench_work/ in the working
// directory, runs one workload against the seldon libraries, prints a
// human-readable report, and as the last line one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}. With --trace 1 the
// metrics are the per-layer figures and the spans are written to
// .bench_work/traces/. Exits non-zero, without a result, when the run
// cannot be carried out.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

namespace fs = std::filesystem;
using namespace e2e;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: seldon_e2e --workload learn_cold|relearn_incr|"
               "serve_mixed --seed N --seconds S --trace 0|1\n"
               "                  [--projects N]\n");
  return 2;
}

bool parseUnsigned(const char *Text, unsigned long long &Out) {
  char *End = nullptr;
  if (!*Text || *Text == '-')
    return false;
  Out = std::strtoull(Text, &End, 10);
  return *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *Value = Argv[++I];
    unsigned long long N = 0;
    if (Flag == "--workload")
      Cfg.Workload = Value;
    else if (!parseUnsigned(Value, N))
      return usage();
    else if (Flag == "--seed")
      Cfg.Seed = N;
    else if (Flag == "--seconds" && N >= 1)
      Cfg.Seconds = static_cast<double>(N);
    else if (Flag == "--trace" && N <= 1)
      Cfg.Trace = N == 1;
    else if (Flag == "--projects" && N >= 1 && N <= 100000)
      Cfg.Projects = static_cast<int>(N);
    else
      return usage();
  }
  bool (*Run)(const RunConfig &, Outcome &) = nullptr;
  if (Cfg.Workload == "learn_cold")
    Run = runLearnCold;
  else if (Cfg.Workload == "relearn_incr")
    Run = runRelearnIncr;
  else if (Cfg.Workload == "serve_mixed")
    Run = runServeMixed;
  else
    return usage();

  std::error_code EC;
  Cfg.BuildStamp = std::to_string(static_cast<unsigned long long>(
      fs::last_write_time(Argv[0], EC).time_since_epoch().count()));
  Cfg.Nproc = std::max(1u, std::thread::hardware_concurrency());
  Cfg.Jobs = std::min(4u, Cfg.Nproc);
  Cfg.WorkDir = ".bench_work/" + Cfg.Workload + "-" +
                std::to_string(::getpid());
  fs::remove_all(Cfg.WorkDir, EC);
  fs::create_directories(Cfg.WorkDir, EC);
  if (EC) {
    std::fprintf(stderr, "error: cannot create %s\n", Cfg.WorkDir.c_str());
    return 1;
  }

  Outcome Out;
  Out.meta("workload", Cfg.Workload);
  Out.meta("seed", static_cast<double>(Cfg.Seed));
  Out.meta("nproc", static_cast<double>(Cfg.Nproc));
  Out.meta("jobs", static_cast<double>(Cfg.Jobs));
  Out.meta("setups", SetupsPerRun);
  bool Ok = false;
  try {
    Ok = Run(Cfg, Out);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
  }
  double CleanStart = now();
  fs::remove_all(Cfg.WorkDir, EC);
  Out.meta("cleanup_s", now() - CleanStart);
  if (!Ok)
    return 1;

  if (Cfg.Trace) {
    std::string Traces = ".bench_work/traces";
    fs::create_directories(Traces, EC);
    std::string Path = Traces + "/" + Cfg.Workload + "-seed" +
                       std::to_string(Cfg.Seed) + ".jsonl";
    if (!tracer().write(Path))
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
    else
      Out.meta("trace_file", Path);
  }
  printReport(Cfg, Out);
  return 0;
}
