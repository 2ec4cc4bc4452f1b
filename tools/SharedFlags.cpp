//===- tools/SharedFlags.cpp - The flags seldon and seldond share ---------===//

#include "SharedFlags.h"

#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <cstdio>

using namespace seldon;

SharedFlags::SharedFlags(ArgParser &Parser, infer::RunConfig &Run)
    : Run(Run), Iters(static_cast<unsigned long>(Run.Iterations)),
      Cutoff(Run.RepCutoff), Jobs(Run.Jobs) {
  Parser
      .string("--seed", &Run.SeedFile, "FILE",
              "seed specification (App. B format; default: built-in)")
      .string("--cache-dir", &Run.CacheDir, "DIR",
              "persistent propagation-graph cache (analyze and stats\n"
              "ignore it); projects whose sources are unchanged skip\n"
              "parsing (identical specs)")
      .flag("--shard-cache", &Run.ShardCache,
            "also cache per-project constraint shards under\n"
            "DIR/shards (requires --cache-dir): a re-learn or a\n"
            "reloading `learn` re-extracts only changed projects")
      .unsignedInt("--iters", &Iters, "N", "solver iterations (default 600)")
      .unsignedInt("--cutoff", &Cutoff, "N",
                   "representation frequency cutoff (default 5)")
      .unsignedInt("--jobs", &Jobs, "N",
                   "threads for loading, parsing and learning (default:\n"
                   "all hardware threads; identical results for any N)")
      .decimal("--threshold", &Run.Threshold, "T",
               "score threshold (default 0.1)")
      .flag("--strict", &Run.Strict,
            "fail on the first broken project instead of\n"
            "quarantining it (analyze and stats always do)")
      .flag("--metrics", &Metrics,
            "print the metrics tables to stderr on exit")
      .string("--metrics-out", &MetricsOut, "F",
              "write the metrics snapshot as JSON to F on exit");
}

bool SharedFlags::check() {
  if (Iters == 0 || Iters > 10'000'000) {
    std::fprintf(stderr, "error: --iters must be in [1, 10000000], got %lu\n",
                 Iters);
    return false;
  }
  Run.Iterations = static_cast<int>(Iters);
  Run.RepCutoff = static_cast<size_t>(Cutoff);
  // 0 means "all hardware threads"; anything above a generous
  // oversubscription cap is almost certainly a typo (or an unchecked
  // negative) and would only thrash, so clamp it loudly.
  unsigned long Cap = 8ul * ThreadPool::hardwareConcurrency();
  if (Jobs > Cap) {
    std::fprintf(stderr,
                 "warning: --jobs %lu exceeds %lu (8x hardware threads); "
                 "clamping to %lu\n",
                 Jobs, Cap, Cap);
    Jobs = Cap;
  }
  Run.Jobs = static_cast<unsigned>(Jobs);
  if (Run.ShardCache && Run.CacheDir.empty()) {
    std::fprintf(stderr, "error: --shard-cache requires --cache-dir\n");
    return false;
  }
  return true;
}

bool SharedFlags::emitMetrics() const {
  metrics::Registry &Reg = metrics::Registry::global();
  if (Metrics)
    std::fputs(Reg.renderText().c_str(), stderr);
  if (MetricsOut.empty())
    return true;
  io::IOResult<size_t> Written = io::writeFile(MetricsOut, Reg.toJson());
  if (!Written) {
    std::fprintf(stderr, "error: cannot write metrics: %s\n",
                 Written.Error.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote metrics to %s\n", MetricsOut.c_str());
  return true;
}

std::string SharedFlags::usage() {
  infer::RunConfig Run;
  ArgParser Parser;
  SharedFlags Flags(Parser, Run);
  return "run options (shared by seldon and seldond):\n" + Parser.usage();
}

bool seldon::configureFaults() {
  std::string Error;
  if (fault::configureFromEnv(&Error))
    return true;
  std::fprintf(stderr, "error: SELDON_FAULT: %s\n", Error.c_str());
  return false;
}
