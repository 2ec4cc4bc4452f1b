//===- bench/fig10_scaling.cpp - Paper Fig. 10 ----------------------------===//
//
// Regenerates Figure 10: Seldon inference time as a function of the number
// of analyzed files. The paper shows linear scaling up to 800,000 files
// (< 5 hours); we sweep corpus subsets of growing size and report the
// end-to-end pipeline time (parse + constraint generation + solving) for a
// serial run (--jobs 1) and a parallel run (SELDON_JOBS threads, default:
// all hardware threads), checking that the two produce byte-identical
// learned specifications. The per-file rate must stay roughly constant for
// linear scaling.
//
// Afterwards, the persistent graph cache is benchmarked at full corpus
// size: an uncached run, a cold cached run (all misses, entries written),
// and a warm cached run (all hits, parse+build skipped) must produce
// byte-identical learned specifications, and the warm parse stage must
// beat the cold one. With SELDON_CACHE_OUT=FILE the comparison is written
// as a JSON fragment that scripts/bench_solver.sh merges into
// BENCH_solver.json. SELDON_FIG10_SWEEP=0 skips the scaling sweep and
// runs only the cache comparison.
//
//===----------------------------------------------------------------------===//

#include "eval/ExperimentDriver.h"
#include "spec/SpecIO.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

using namespace seldon;
using namespace seldon::eval;

namespace {

struct TimedRun {
  infer::PipelineResult Result;
  double BuildSeconds = 0.0; ///< buildGraph() alone.
  double TotalSeconds = 0.0; ///< Build, constraint generation and solve.
};

TimedRun runWithJobs(const corpus::Corpus &Data,
                     const infer::PipelineOptions &BaseOpts, unsigned Jobs,
                     const std::string &CacheDir = std::string()) {
  infer::PipelineOptions Opts = BaseOpts;
  Opts.Jobs = Jobs;
  infer::Session Session(Opts);
  if (!CacheDir.empty())
    Session.enableCache(CacheDir);
  Session.addProjects(Data.Projects);
  TimedRun Run;
  Timer Total;
  Session.buildGraph();
  Run.BuildSeconds = Total.seconds();
  Session.generateConstraints(Data.Seed);
  Run.Result = Session.solve();
  Run.TotalSeconds = Total.seconds();
  return Run;
}

/// Cold vs warm graph-cache comparison at full corpus size. Returns false
/// on a correctness failure (spec drift or missing hits); timing deltas
/// are reported, not gated.
bool runCacheComparison(int MaxProjects, unsigned Jobs,
                        const infer::PipelineOptions &PipelineOpts) {
  corpus::CorpusOptions CorpusOpts = standardCorpusOptions();
  CorpusOpts.NumProjects = MaxProjects;
  corpus::Corpus Data = corpus::generateCorpus(CorpusOpts);

  std::string Template =
      (std::filesystem::temp_directory_path() / "seldon-cache-XXXXXX")
          .string();
  std::vector<char> Path(Template.begin(), Template.end());
  Path.push_back('\0');
  if (!mkdtemp(Path.data())) {
    std::cerr << "cache bench: cannot create temp cache directory\n";
    return false;
  }
  std::string CacheDir(Path.data());

  TimedRun Uncached = runWithJobs(Data, PipelineOpts, Jobs);
  TimedRun Cold = runWithJobs(Data, PipelineOpts, Jobs, CacheDir);
  TimedRun Warm = runWithJobs(Data, PipelineOpts, Jobs, CacheDir);
  std::filesystem::remove_all(CacheDir);

  std::string UncachedSpec = spec::writeLearnedSpec(Uncached.Result.Learned);
  bool Identical =
      UncachedSpec == spec::writeLearnedSpec(Cold.Result.Learned) &&
      UncachedSpec == spec::writeLearnedSpec(Warm.Result.Learned);
  const cache::CacheStats &ColdStats = Cold.Result.Cache;
  const cache::CacheStats &WarmStats = Warm.Result.Cache;
  size_t Projects = Data.Projects.size();
  bool AllHits = WarmStats.Hits == Projects && WarmStats.Misses == 0;
  bool AllMisses = ColdStats.Misses == Projects && ColdStats.Hits == 0;

  std::cout << "\n=== Graph cache: cold vs warm at full corpus size ===\n\n";
  TablePrinter Table({"Run", "Parse (s)", "Total (s)", "Hits", "Misses"});
  Table.addRow({"uncached",
                formatString("%.3f", Uncached.BuildSeconds),
                formatString("%.3f", Uncached.TotalSeconds), "-", "-"});
  Table.addRow({"cold cache",
                formatString("%.3f", Cold.BuildSeconds),
                formatString("%.3f", Cold.TotalSeconds),
                std::to_string(ColdStats.Hits),
                std::to_string(ColdStats.Misses)});
  Table.addRow({"warm cache",
                formatString("%.3f", Warm.BuildSeconds),
                formatString("%.3f", Warm.TotalSeconds),
                std::to_string(WarmStats.Hits),
                std::to_string(WarmStats.Misses)});
  Table.print(std::cout);
  std::cout << formatString(
      "\nwarm parse speedup over cold: %.2fx (%zu project(s), "
      "%llu bytes cached)\nlearned specs byte-identical across "
      "uncached/cold/warm: %s\n",
      Warm.BuildSeconds > 0.0 ? Cold.BuildSeconds / Warm.BuildSeconds : 0.0,
      Projects,
      static_cast<unsigned long long>(ColdStats.BytesWritten),
      Identical ? "yes" : "NO — CACHE BUG");
  if (!AllMisses)
    std::cout << "cold run was not all misses — CACHE BUG\n";
  if (!AllHits)
    std::cout << "warm run was not all hits — CACHE BUG\n";

  if (const char *Out = std::getenv("SELDON_CACHE_OUT")) {
    std::ofstream Json(Out, std::ios::trunc);
    Json << "{\n";
    Json << formatString("  \"projects\": %zu,\n", Projects);
    Json << formatString("  \"files\": %zu,\n",
                         Uncached.Result.Graph->files().size());
    Json << formatString("  \"jobs\": %u,\n", Jobs);
    Json << formatString("  \"uncached_parse_seconds\": %.6f,\n",
                         Uncached.BuildSeconds);
    Json << formatString("  \"cold_parse_seconds\": %.6f,\n",
                         Cold.BuildSeconds);
    Json << formatString("  \"warm_parse_seconds\": %.6f,\n",
                         Warm.BuildSeconds);
    Json << formatString("  \"cold_total_seconds\": %.6f,\n",
                         Cold.TotalSeconds);
    Json << formatString("  \"warm_total_seconds\": %.6f,\n",
                         Warm.TotalSeconds);
    Json << formatString("  \"warm_parse_speedup\": %.4f,\n",
                         Warm.BuildSeconds > 0.0
                             ? Cold.BuildSeconds / Warm.BuildSeconds
                             : 0.0);
    Json << formatString("  \"warm_hits\": %llu,\n",
                         static_cast<unsigned long long>(WarmStats.Hits));
    Json << formatString("  \"warm_misses\": %llu,\n",
                         static_cast<unsigned long long>(WarmStats.Misses));
    Json << formatString(
        "  \"cold_misses\": %llu,\n",
        static_cast<unsigned long long>(ColdStats.Misses));
    Json << formatString(
        "  \"bytes_written\": %llu,\n",
        static_cast<unsigned long long>(ColdStats.BytesWritten));
    Json << formatString(
        "  \"bytes_read\": %llu,\n",
        static_cast<unsigned long long>(WarmStats.BytesRead));
    Json << formatString("  \"byte_identical\": %s\n",
                         Identical ? "true" : "false");
    Json << "}\n";
  }
  return Identical && AllHits && AllMisses;
}

} // namespace

int main() {
  int MaxProjects = envInt("SELDON_PROJECTS", 300) * 2;
  unsigned Jobs = static_cast<unsigned>(
      envInt("SELDON_JOBS",
             static_cast<int>(ThreadPool::hardwareConcurrency())));
  infer::PipelineOptions PipelineOpts = standardPipelineOptions();

  if (envInt("SELDON_FIG10_SWEEP", 1) == 0)
    return runCacheComparison(MaxProjects, Jobs, PipelineOpts) ? 0 : 1;

  std::cout << "=== Figure 10: Seldon inference time vs number of analyzed "
               "files ===\n\n";
  std::cout << formatString("parallel runs use %u job(s) "
                            "(override with SELDON_JOBS)\n\n",
                            Jobs);
  TablePrinter Table({"# Files", "# Constraints", "Serial (s)",
                      formatString("Jobs=%u (s)", Jobs), "Speedup",
                      "ms per file"});

  bool AllIdentical = true;
  double HalfRate = 0.0, LastRate = 0.0;
  solver::CompileStats LastStats;
  for (int Fraction = 1; Fraction <= 8; ++Fraction) {
    corpus::CorpusOptions CorpusOpts = standardCorpusOptions();
    CorpusOpts.NumProjects = MaxProjects * Fraction / 8;
    if (CorpusOpts.NumProjects == 0)
      continue;
    corpus::Corpus Data = corpus::generateCorpus(CorpusOpts);

    TimedRun Serial = runWithJobs(Data, PipelineOpts, 1);
    TimedRun Parallel = runWithJobs(Data, PipelineOpts, Jobs);

    // Determinism check: the parallel run must reproduce the serial
    // specification byte for byte.
    AllIdentical &= spec::writeLearnedSpec(Serial.Result.Learned) ==
                    spec::writeLearnedSpec(Parallel.Result.Learned);

    const infer::PipelineResult &R = Parallel.Result;
    const size_t NumFiles = R.Graph->files().size();
    double MsPerFile = NumFiles == 0 ? 0.0
                                     : 1000.0 * Parallel.TotalSeconds /
                                           static_cast<double>(NumFiles);
    if (Fraction == 4)
      HalfRate = MsPerFile;
    LastRate = MsPerFile;
    LastStats = R.SolverStats;
    Table.addRow({std::to_string(NumFiles),
                  std::to_string(R.System.Constraints.size()),
                  formatString("%.3f", Serial.TotalSeconds),
                  formatString("%.3f", Parallel.TotalSeconds),
                  formatString("%.2fx",
                               Parallel.TotalSeconds > 0.0
                                   ? Serial.TotalSeconds /
                                         Parallel.TotalSeconds
                                   : 0.0),
                  formatString("%.3f", MsPerFile)});
  }
  Table.print(std::cout);

  std::cout << formatString(
      "\ncompiled solver at full size: %zu constraints -> %zu rows "
      "(dedup %.2fx), %zu non-zeros\n",
      LastStats.RowsBefore, LastStats.RowsAfter, LastStats.dedupRatio(),
      LastStats.NonZeros);
  std::cout << formatString(
      "\nSerial and parallel learned specs byte-identical at every size: "
      "%s\n",
      AllIdentical ? "yes" : "NO — DETERMINISM BUG");
  std::cout << formatString(
      "\nPer-file rate at half vs full corpus: %.3f vs %.3f ms/file — "
      "linear scaling keeps\nthese close. (The rate climbs at the smallest "
      "sizes while representations are still\nbelow the frequency cutoff, "
      "then plateaus; the paper's curve is linear up to 800k\nfiles. "
      "Speedup tracks the number of physical cores; on a single-core "
      "machine the\nparallel column matches the serial one.)\n",
      HalfRate, LastRate);

  AllIdentical &= runCacheComparison(MaxProjects, Jobs, PipelineOpts);
  return AllIdentical ? 0 : 1;
}
