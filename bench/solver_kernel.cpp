//===- bench/solver_kernel.cpp - Solver kernel bench ----------------------===//
//
// Times the solve stage on the Fig. 10 corpus with the solver kernel
// (solver::CompiledObjective) on the host's best vector tier at Jobs=1
// and at SELDON_JOBS threads, and on the scalar tier (SELDON_SIMD=off) at
// Jobs=1. Reports the compile seconds and the kernel speed (CSR
// non-zeros swept per second) from the session/solve/compile and
// session/solve/iterate spans, and verifies the kernel's contract: all
// three runs emit byte-identical learned specifications. Emits a JSON
// summary to stdout (scripts/bench_solver.sh redirects it into
// BENCH_solver.json) and a human-readable table to stderr. Exits non-zero
// if the contract is violated.
//
//===----------------------------------------------------------------------===//

#include "eval/ExperimentDriver.h"
#include "spec/SpecIO.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

using namespace seldon;
using namespace seldon::eval;

namespace {

/// One solve and the stage spans it recorded.
struct SolveRun {
  infer::PipelineResult Result;
  std::string Spec;
  double SolveSeconds = 0.0;
  double CompileSeconds = 0.0;
  double IterateSeconds = 0.0;

  /// CSR non-zeros swept per second of optimizer iterations.
  double nnzPerSecond() const {
    return IterateSeconds > 0.0
               ? static_cast<double>(Result.SolverStats.NonZeros) *
                     Result.Solve.Iterations / IterateSeconds
               : 0.0;
  }
};

/// Solves at \p Jobs with SELDON_SIMD set to \p Tier (null: unset) and
/// reads the stage timings back from the spans the solve recorded.
SolveRun solveWith(infer::Session &Session, unsigned Jobs, const char *Tier) {
  if (Tier)
    setenv("SELDON_SIMD", Tier, 1);
  else
    unsetenv("SELDON_SIMD");
  metrics::Registry &Reg = metrics::Registry::global();
  size_t Before = Reg.spans().size();
  Session.options().Jobs = Jobs;
  SolveRun Run;
  Run.Result = Session.solve();
  Run.Spec = spec::writeLearnedSpec(Run.Result.Learned, ScoreThreshold);
  std::vector<metrics::SpanRecord> Spans = Reg.spans();
  std::map<std::string, double> Seconds;
  for (size_t I = Before; I < Spans.size(); ++I)
    Seconds[Spans[I].Path] = Spans[I].DurationSeconds;
  Run.SolveSeconds = Seconds["session/solve"];
  Run.CompileSeconds = Seconds["session/solve/compile"];
  Run.IterateSeconds = Seconds["session/solve/iterate"];
  return Run;
}

} // namespace

int main() {
  int NumProjects = envInt("SELDON_PROJECTS", 300);
  unsigned Jobs = static_cast<unsigned>(
      envInt("SELDON_JOBS",
             static_cast<int>(ThreadPool::hardwareConcurrency())));

  // The bench's timings come from the same instrumentation layer the CLI
  // exports (--metrics-out): Session stage durations are trace spans, and
  // the full snapshot is embedded in the JSON summary below.
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.setEnabled(true);

  corpus::CorpusOptions CorpusOpts = standardCorpusOptions();
  CorpusOpts.NumProjects = NumProjects;
  corpus::Corpus Data = corpus::generateCorpus(CorpusOpts);

  // Parse + generate once; every solve below reuses the same constraint
  // system, so the timings isolate the solve stage.
  infer::PipelineOptions PipelineOpts = standardPipelineOptions();
  infer::Session Session(PipelineOpts);
  Session.addProjects(Data.Projects);
  Session.generateConstraints(Data.Seed);

  std::fprintf(stderr, "solver bench: %d project(s), %u parallel job(s)\n",
               NumProjects, Jobs);
  // The native runs leave SELDON_SIMD unset: the caller's setting must not
  // cap the tier being measured.
  SolveRun Serial = solveWith(Session, 1, nullptr);
  SolveRun Parallel = solveWith(Session, Jobs, nullptr);
  SolveRun Scalar = solveWith(Session, 1, "off");
  unsetenv("SELDON_SIMD");

  bool Identical = Serial.Spec == Parallel.Spec && Serial.Spec == Scalar.Spec;
  const infer::PipelineResult &R = Serial.Result;
  const solver::CompileStats &S = R.SolverStats;
  const char *Tier = solver::kernelTierName(
      R.SimdActive ? solver::CompiledObjective::hostTier()
                   : solver::KernelTier::Scalar);
  double VectorSpeedup = Serial.IterateSeconds > 0.0
                             ? Scalar.IterateSeconds / Serial.IterateSeconds
                             : 0.0;

  std::fprintf(stderr,
               "system: %zu constraints -> %zu rows (dedup %.2fx), "
               "%zu non-zeros, %d iterations\n",
               S.RowsBefore, S.RowsAfter, S.dedupRatio(), S.NonZeros,
               R.Solve.Iterations);
  std::fprintf(stderr, "compile: %.4fs\n", Serial.CompileSeconds);
  std::fprintf(stderr,
               "%s tier jobs=1: %.3fs solve, %.3g nnz/s   jobs=%u: %.3fs "
               "solve\n",
               Tier, Serial.SolveSeconds, Serial.nnzPerSecond(), Jobs,
               Parallel.SolveSeconds);
  std::fprintf(stderr, "scalar tier jobs=1: %.3fs solve, %.3g nnz/s\n",
               Scalar.SolveSeconds, Scalar.nnzPerSecond());
  std::fprintf(stderr, "%s tier iterates %.2fx faster than scalar\n", Tier,
               VectorSpeedup);
  std::fprintf(stderr, "specs byte-identical across tiers and jobs: %s\n",
               Identical ? "yes" : "NO — EQUIVALENCE BUG");

  std::string Json = "{\n";
  Json += formatString("  \"projects\": %d,\n", NumProjects);
  Json += formatString("  \"files\": %zu,\n", R.Graph->files().size());
  Json += formatString("  \"jobs\": %u,\n", Jobs);
  Json += formatString("  \"constraints\": %zu,\n", S.RowsBefore);
  Json += formatString("  \"rows_after_dedup\": %zu,\n", S.RowsAfter);
  Json += formatString("  \"dedup_ratio\": %.4f,\n", S.dedupRatio());
  Json += formatString("  \"nonzeros\": %zu,\n", S.NonZeros);
  Json += formatString("  \"max_multiplicity\": %zu,\n", S.MaxMultiplicity);
  Json += formatString("  \"iterations\": %d,\n", R.Solve.Iterations);
  Json += formatString("  \"tier\": \"%s\",\n", Tier);
  Json += formatString("  \"simd_active\": %s,\n",
                       R.SimdActive ? "true" : "false");
  Json += formatString("  \"narrow_operands\": %s,\n",
                       R.NarrowOperands ? "true" : "false");
  Json += formatString("  \"compile_seconds\": %.6f,\n",
                       Serial.CompileSeconds);
  Json += formatString("  \"kernel_nnz_per_second\": %.6g,\n",
                       Serial.nnzPerSecond());
  Json += formatString("  \"scalar_nnz_per_second\": %.6g,\n",
                       Scalar.nnzPerSecond());
  Json += formatString("  \"vector_speedup\": %.4f,\n", VectorSpeedup);
  Json += formatString("  \"serial_seconds\": %.6f,\n", Serial.SolveSeconds);
  Json += formatString("  \"parallel_seconds\": %.6f,\n",
                       Parallel.SolveSeconds);
  Json += formatString("  \"scalar_serial_seconds\": %.6f,\n",
                       Scalar.SolveSeconds);
  Json += formatString("  \"byte_identical\": %s,\n",
                       Identical ? "true" : "false");
  // Full registry snapshot (indented to nest under this object).
  {
    std::string Snapshot = Reg.toJson();
    if (!Snapshot.empty() && Snapshot.back() == '\n')
      Snapshot.pop_back();
    std::string Indented;
    for (char C : Snapshot) {
      Indented += C;
      if (C == '\n')
        Indented += "  ";
    }
    Json += "  \"metrics\": " + Indented + "\n";
  }
  Json += "}\n";
  std::fputs(Json.c_str(), stdout);

  return Identical ? 0 : 1;
}
