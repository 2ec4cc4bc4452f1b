//===- infer/Pipeline.h - Seldon end-to-end inference ------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end Seldon pipeline (paper §7.1) behind a staged Session API:
/// parse a corpus of projects, extract per-project propagation graphs (in
/// parallel, merged deterministically), build the linear constraint system
/// (sharded by file), minimize the relaxed objective with projected Adam,
/// and read the per-(representation, role) scores back into a LearnedSpec.
///
/// Stages are explicit so callers can reuse expensive artifacts:
///
///   infer::Session S(Opts);
///   S.addProjects(Corpus);
///   S.buildGraph();                  // parse + extract (cache misses)
///   S.generateConstraints(Seed);     // re-runnable after options() change
///   infer::PipelineResult R = S.solve();
///
/// Every stage honors PipelineOptions::Jobs; for any Jobs value the learned
/// scores are bit-identical to the serial (Jobs = 1) run — see
/// docs/architecture.md for the determinism strategy.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_INFER_PIPELINE_H
#define SELDON_INFER_PIPELINE_H

#include "cache/GraphCache.h"
#include "cache/ShardCache.h"
#include "constraints/ConstraintGen.h"
#include "constraints/Feedback.h"
#include "infer/RunHealth.h"
#include "propgraph/GraphBuilder.h"
#include "spec/LearnedSpec.h"
#include "spec/SeedSpec.h"
#include "solver/AdamOptimizer.h"
#include "solver/CompiledObjective.h"
#include "support/Deadline.h"

#include <memory>
#include <vector>

namespace seldon {

class ThreadPool;

namespace infer {

/// All knobs of the end-to-end pipeline, defaulting to the paper's values
/// (C = 0.75, cutoff 5, λ = 0.1, score threshold 0.1).
struct PipelineOptions {
  propgraph::BuildOptions Build;
  constraints::GenOptions Gen;
  double Lambda = 0.1;
  solver::SolveOptions Solve;
  /// Warm-start the optimizer from a previously learned specification:
  /// solve() maps its scores (matched by representation string) onto the
  /// starting point, so retraining after the corpus grows converges in far
  /// fewer iterations. Null starts from zero.
  const spec::LearnedSpec *WarmStart = nullptr;
  /// User feedback applied at solve time (borrowed; keep alive through
  /// solve()). Accepted/rejected specs append weighted evidence rows to
  /// the solved system — see constraints/Feedback.h. Null or empty is the
  /// passive path, byte for byte.
  const constraints::FeedbackSet *Feedback = nullptr;
  constraints::FeedbackOptions FeedbackOpts;
  /// Learn over the vertex-contracted graph (paper §6.4: the collapsed
  /// graph is unusable for taint analysis but still usable for
  /// specification learning). The result's Graph member stays uncollapsed
  /// so the taint client remains sound.
  bool CollapseForLearning = false;
  /// Threads for graph building, constraint generation, and gradient
  /// evaluation: the calling thread and Jobs - 1 pool workers. 0 =
  /// hardware concurrency, 1 = fully serial.
  /// The learned scores are bit-identical for every value.
  unsigned Jobs = 0;
  /// Fail fast instead of quarantining: the first project whose
  /// parse/build throws rethrows out of buildGraph() (lowest corpus index
  /// wins, so the surfaced error is deterministic at any Jobs value).
  bool Strict = false;
  /// Whole-run wall-clock budget in seconds (0 = unlimited), armed when
  /// the first stage starts. Projects not built before expiry are
  /// quarantined, constraint generation aborts with DeadlineError, and
  /// the solver's remaining budget is capped — the run ends with partial,
  /// clearly-flagged results instead of hanging. See RunHealth.
  double DeadlineSeconds = 0.0;
};

/// The pipeline stages a ProgressObserver is notified about.
enum class Phase { BuildGraph, GenerateConstraints, Solve };

/// Printable phase name ("parse", "constraints", "solve").
const char *phaseName(Phase P);

/// Callback interface for the progress only the Session sees as it
/// happens. All methods are invoked serialized (never concurrently),
/// including under a parallel frontend; onProjectGraphBuilt sees a
/// strictly increasing Done count. Implementations must be fast — they run
/// under the progress lock. Stage wall times are the registry's
/// "session/..." spans, and solver iterations reach
/// SolveOptions::OnIteration.
class ProgressObserver {
public:
  virtual ~ProgressObserver() = default;

  /// Entering pipeline phase \p P.
  virtual void onPhase(Phase P) { (void)P; }

  /// \p Done of \p Total projects parsed into propagation graphs.
  virtual void onProjectGraphBuilt(size_t Done, size_t Total) {
    (void)Done;
    (void)Total;
  }
};

/// Delta statistics of one incremental run: how many files buildGraph()
/// parsed, how many projects' anchors came from cached shards versus a
/// fresh extraction, and whether the solve was warm-started. The
/// shard counters are all zero when the shard cache is off.
struct IncrStats {
  /// Files buildGraph() lexed and parsed: those of the projects whose
  /// graph was built rather than served from the graph cache (every file
  /// when the cache is off).
  uint64_t FilesParsed = 0;
  /// Lexer and parser diagnostics across those files.
  uint64_t ParseDiagnostics = 0;
  /// Projects whose cached constraint shard was loaded and used.
  uint64_t ShardsHit = 0;
  /// Projects whose shard was extracted fresh (miss, eviction, a shard
  /// that did not fit the project's graph, or no usable cache).
  uint64_t ShardsRebuilt = 0;
  /// Freshly extracted shards written back to the cache.
  uint64_t ShardsStored = 0;
  /// The solve was seeded from a previous LearnedSpec.
  bool WarmStarted = false;
};

/// Everything the pipeline produced, including the intermediate artifacts
/// the evaluation and the benches inspect.
struct PipelineResult {
  /// Global propagation graph: the Session's own immutable graph, shared
  /// by every result it returns, so a result stays self-contained after
  /// its Session is gone without copying the graph.
  std::shared_ptr<const propgraph::PropagationGraph> Graph;
  /// Graph's representation counts; its strings are Graph's.
  propgraph::RepTable Reps;
  constraints::ConstraintSystem System;
  solver::SolveResult Solve;
  spec::LearnedSpec Learned;

  /// What the compilation pass did (rows coalesced, CSR non-zeros).
  solver::CompileStats SolverStats;
  /// The backend that ran, and whether its vector tier was active (AVX2
  /// or AVX-512 dispatched; false on the scalar tier, which computes
  /// bit-identical results).
  solver::SolverBackend Backend = solver::SolverBackend::Compiled;
  bool SimdActive = false;
  /// Whether the value pass read half-width operands (the system's
  /// choice; bit-identical to full width).
  bool NarrowOperands = false;

  /// Whether a graph cache was enabled, and its counters at solve() time
  /// (hits + misses == project count when the cache was active during
  /// buildGraph). Cache hits change timings only — the learned scores are
  /// byte-identical to an uncached run.
  bool UsedCache = false;
  cache::CacheStats Cache;

  /// Whether a shard cache was enabled and usable for this run's
  /// constraint generation, its counters at solve() time, and the delta
  /// statistics. Like the graph cache, shard hits change timings only —
  /// the composed system and the learned scores are byte-identical to an
  /// uncached run.
  bool UsedShardCache = false;
  cache::CacheStats ShardCacheStats;
  IncrStats Incr;

  /// Whether feedback evidence rows were applied to this solve's System
  /// (the returned System then includes them), and what the application
  /// matched/appended.
  bool UsedFeedback = false;
  constraints::FeedbackStats Feedback;

  /// What the Session's stages had to do: quarantined projects, degraded
  /// cache operations, a build- or constraints-stage deadline expiry. The
  /// solve's own guard and stop facts live in Solve.
  RunHealth Health;

  /// Worker threads the run actually used.
  unsigned JobsUsed = 1;

  /// Clean on an undisturbed run; Degraded when Health records a
  /// degradation or the solve recovered from a non-finite step, fell back,
  /// or was stopped before it finished.
  RunStatus status() const {
    bool SolveDegraded =
        Solve.Recoveries > 0 || Solve.FellBack || Solve.DeadlineExpired;
    return Health.degraded() || SolveDegraded ? RunStatus::Degraded
                                              : RunStatus::Clean;
  }
};

/// A staged pipeline run. Construct with options, feed projects (or adopt
/// a prebuilt graph), then drive the stages in order; generateConstraints
/// and solve may be re-run after mutating options() to sweep
/// configurations without re-parsing the corpus.
///
/// Projects added with addProject are borrowed — the caller keeps them
/// alive until buildGraph() has run. A Session is single-threaded from the
/// caller's perspective; it parallelizes internally according to
/// options().Jobs.
class Session {
public:
  explicit Session(PipelineOptions Opts = PipelineOptions());
  ~Session();
  Session(Session &&) noexcept;
  Session &operator=(Session &&) noexcept;

  /// Live options; Gen/Solve changes take effect on the next stage call.
  PipelineOptions &options() { return Opts; }
  const PipelineOptions &options() const { return Opts; }

  /// Installs a progress observer (null to remove). Borrowed.
  void setObserver(ProgressObserver *Observer) { this->Observer = Observer; }

  /// Registers a project for buildGraph(). Borrowed reference.
  Session &addProject(const pysem::Project &Proj);
  /// Registers every project of \p Corpus. Borrowed references.
  Session &addProjects(const std::vector<pysem::Project> &Corpus);

  /// Adopts an already-built global graph instead of parsing projects
  /// (used when the same graph is reused across ablation configurations).
  Session &adoptGraph(propgraph::PropagationGraph Graph);

  /// Enables the persistent propagation-graph cache rooted at \p Dir
  /// (created if missing). Must be called before buildGraph(). Projects
  /// whose entry hits are adopted without re-parsing; misses build via the
  /// normal (parallel) path and write back. An unusable directory degrades
  /// to all-miss operation rather than failing the pipeline; check
  /// graphCache()->valid() to surface that. See cache/GraphCache.h.
  Session &enableCache(const std::string &Dir);

  /// The enabled cache, or null. Valid for the Session's lifetime.
  const cache::GraphCache *graphCache() const { return Cache.get(); }

  /// Enables the persistent constraint-shard cache rooted at \p Dir
  /// (created if missing). Must be called before buildGraph(). With it,
  /// generateConstraints() emits cached per-project anchors and extracts
  /// only the projects whose shard key changed; the system is
  /// byte-identical to uncached generation. Ignored (with a plain
  /// regeneration) when the graph was adopted rather than built from
  /// projects, or when CollapseForLearning is set — vertex contraction
  /// crosses project boundaries, so the system is not per-project
  /// composable. An unusable directory degrades to all-miss operation.
  Session &enableShardCache(const std::string &Dir);

  /// The enabled shard cache, or null. Valid for the Session's lifetime.
  const cache::ShardCache *shardCache() const { return SCache.get(); }

  /// Delta statistics: the parse counters of buildGraph(), the shard
  /// counters of the most recent generateConstraints() (all zero without
  /// a shard cache), and WarmStarted, filled in by solve().
  const IncrStats &incrStats() const { return Incr; }

  /// Builds the global propagation graph: per-project extraction fans out
  /// over Jobs threads; the per-project graphs are merged in corpus order,
  /// so event ids match the serial run exactly. A project is parsed only
  /// when its graph is not served from the graph cache (see
  /// incrStats().FilesParsed). No-op if a graph was adopted or already
  /// built.
  ///
  /// Each project runs inside an isolation boundary: a throwing
  /// parse/build/cache-load quarantines that project (captured in
  /// health()) and the merge continues over the survivors — the resulting
  /// graph, and every downstream artifact, is byte-identical to a run
  /// over only the surviving projects at any Jobs value. Options
  /// Strict restores fail-fast.
  Session &buildGraph();

  /// Generates the constraint system for \p Seed (runs buildGraph() first
  /// if needed). Re-runnable.
  Session &generateConstraints(const spec::SeedSpec &Seed);

  /// Minimizes the relaxed objective and returns the full result.
  /// Requires generateConstraints(). Re-runnable; each call re-optimizes
  /// with the current options. The result shares the session's graph and
  /// copies its representation counts and constraint system.
  PipelineResult solve();

  /// Installs a previously computed solver result instead of optimizing:
  /// builds a PipelineResult from the session's artifacts exactly as
  /// solve() would — including applying options().Feedback evidence rows
  /// to the result's System copy — but adopts \p Restored wholesale in
  /// place of running the optimizer (so the result's status() reports the
  /// restored solve's own recoveries, fallback and stop), then extracts
  /// the LearnedSpec from Restored.X. Requires generateConstraints();
  /// returns false (leaving \p Out untouched) when Restored.X does not
  /// match the system's variable count. The seldond durability layer uses
  /// this to re-serve a snapshot's scores byte-identically without
  /// re-solving.
  bool restoreSolve(const solver::SolveResult &Restored, PipelineResult &Out);

  /// The built or adopted global graph (valid after buildGraph()). Every
  /// PipelineResult this session returns shares it.
  const propgraph::PropagationGraph &graph() const { return *Graph; }
  bool hasGraph() const { return Graph != nullptr; }

  /// The generated constraint system (valid after generateConstraints();
  /// solve() copies it — plus any feedback rows — into its result).
  const constraints::ConstraintSystem &system() const { return System; }
  /// The corpus representation table (valid after buildGraph()).
  const propgraph::RepTable &reps() const { return Reps; }

  /// Pins the (\p Rep, \p R) score variable to \p Value for every
  /// subsequent solve() — the same §4.1 mechanism seed labels use, and
  /// how the active-learning loop applies oracle answers. An existing pin
  /// of the variable is updated in place. Returns false (and changes
  /// nothing) when the pair has no score variable. Requires
  /// generateConstraints(); re-running generateConstraints() rebuilds the
  /// seed-only pin set.
  bool pinVariable(const std::string &Rep, propgraph::Role R, double Value);

  /// What the session's stages did so far: quarantines, cache incidents
  /// and a parse- or constraints-stage deadline expiry accumulate. Each
  /// PipelineResult embeds a snapshot; a solve's own facts are in its
  /// Solve member.
  const RunHealth &health() const { return Health; }

private:
  unsigned resolveJobs() const;
  ThreadPool *poolFor(unsigned Jobs);
  /// Publishes \p Built as the graph, together with its RepTable.
  void publish(propgraph::PropagationGraph Built);
  void armDeadline();
  /// The result solve() and restoreSolve() both start from: the session's
  /// graph shared, its other artifacts, health and cache statistics copied
  /// in, options().Feedback rows applied to the System copy, and the
  /// incremental counters.
  PipelineResult assembleResult(unsigned Jobs);
  /// The incremental generation path: per-project shards are loaded from
  /// the shard cache (a shard that does not fit its graph slice is a miss,
  /// reported in Health.CacheIncidents) or extracted and stored, in
  /// parallel; then one constraints::generateConstraints() call emits
  /// every file's anchors into a system byte-identical to direct
  /// generation.
  constraints::ConstraintSystem
  composeFromShards(const spec::SeedSpec &Seed, ThreadPool *P);

  PipelineOptions Opts;
  ProgressObserver *Observer = nullptr;
  std::vector<const pysem::Project *> Projects;
  std::unique_ptr<cache::GraphCache> Cache;
  std::unique_ptr<cache::ShardCache> SCache;
  RunHealth Health;
  Deadline RunDeadline;

  /// One surviving project's slice of the built global graph: its file
  /// range plus its graph cache key (the shard key's content anchor).
  /// Recorded by buildGraph() when a shard cache is enabled; empty (and
  /// SlicesValid false) for adopted graphs.
  struct ProjectSlice {
    size_t ProjectIndex = 0;
    cache::CacheKey GraphKey;
    uint32_t FileBegin = 0;
    uint32_t FileEnd = 0;
  };
  std::vector<ProjectSlice> Slices;
  bool SlicesValid = false;
  IncrStats Incr;

  /// Published once by buildGraph() or adoptGraph(); null before.
  std::shared_ptr<const propgraph::PropagationGraph> Graph;

  propgraph::RepTable Reps;
  constraints::ConstraintSystem System;
  bool SystemReady = false;
  bool SystemFromShards = false;

  std::unique_ptr<ThreadPool> Pool;
};

/// Saves a Session's options() and restores them when the scope ends,
/// including on a throw: per-solve overrides (an iteration budget, a stop
/// condition, a borrowed WarmStart or Feedback pointer) never outlive the
/// solve they were set for.
///
///   {
///     infer::ScopedOptions Scope(S);
///     S.options().WarmStart = &Previous;
///     R = S.solve();
///   } // options() as before the scope
class ScopedOptions {
public:
  explicit ScopedOptions(Session &S) : S(S), Saved(S.options()) {}
  ~ScopedOptions() { S.options() = std::move(Saved); }
  ScopedOptions(const ScopedOptions &) = delete;
  ScopedOptions &operator=(const ScopedOptions &) = delete;

private:
  Session &S;
  PipelineOptions Saved;
};

} // namespace infer
} // namespace seldon

#endif // SELDON_INFER_PIPELINE_H
