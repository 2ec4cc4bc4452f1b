//===- infer/Pipeline.cpp - Seldon end-to-end inference -------------------===//

#include "infer/Pipeline.h"

#include "constraints/ConstraintShard.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <atomic>
#include <cassert>
#include <mutex>

using namespace seldon;
using namespace seldon::infer;
using namespace seldon::propgraph;

const char *seldon::infer::phaseName(Phase P) {
  switch (P) {
  case Phase::BuildGraph:
    return "parse";
  case Phase::GenerateConstraints:
    return "constraints";
  case Phase::Solve:
    return "solve";
  }
  return "?";
}

Session::Session(PipelineOptions Opts) : Opts(std::move(Opts)) {}
Session::~Session() = default;
Session::Session(Session &&) noexcept = default;
Session &Session::operator=(Session &&) noexcept = default;

unsigned Session::resolveJobs() const {
  return Opts.Jobs == 0 ? ThreadPool::hardwareConcurrency() : Opts.Jobs;
}

ThreadPool *Session::poolFor(unsigned Jobs) {
  if (Jobs <= 1)
    return nullptr;
  // A loop runs a share on its caller, so Jobs threads are the caller and
  // Jobs - 1 workers.
  if (!Pool || Pool->numWorkers() != Jobs - 1)
    Pool = std::make_unique<ThreadPool>(Jobs - 1);
  return Pool.get();
}

Session &Session::addProject(const pysem::Project &Proj) {
  assert(!Graph && "cannot add projects after the graph is built");
  Projects.push_back(&Proj);
  return *this;
}

Session &Session::addProjects(const std::vector<pysem::Project> &Corpus) {
  for (const pysem::Project &Proj : Corpus)
    addProject(Proj);
  return *this;
}

Session &Session::enableCache(const std::string &Dir) {
  assert(!Graph && "enableCache must precede buildGraph");
  Cache = std::make_unique<cache::GraphCache>(Dir);
  return *this;
}

Session &Session::enableShardCache(const std::string &Dir) {
  assert(!Graph && "enableShardCache must precede buildGraph");
  SCache = std::make_unique<cache::ShardCache>(Dir);
  return *this;
}

void Session::publish(PropagationGraph Built) {
  Graph = std::make_shared<const PropagationGraph>(std::move(Built));
  Reps = RepTable(Graph);
}

Session &Session::adoptGraph(PropagationGraph NewGraph) {
  publish(std::move(NewGraph));
  SystemReady = false;
  // An adopted graph has no per-project structure to slice shards from;
  // generateConstraints falls back to direct generation.
  Slices.clear();
  SlicesValid = false;
  return *this;
}

void Session::armDeadline() {
  if (!RunDeadline.armed())
    RunDeadline.arm(Opts.DeadlineSeconds);
}

Session &Session::buildGraph() {
  if (Graph)
    return *this;
  armDeadline();
  unsigned Jobs = resolveJobs();
  ThreadPool *P = poolFor(Jobs);
  if (Observer)
    Observer->onPhase(Phase::BuildGraph);

  metrics::Registry &Reg = metrics::Registry::global();
  trace::Span BuildSpan(Reg, "session/build");
  metrics::TimerStat *ProjectTimer =
      Reg.enabled() ? &Reg.timer("build.project_seconds") : nullptr;
  const size_t Total = Projects.size();
  std::vector<PropagationGraph> PerProject(Total);
  std::vector<cache::CacheKey> Keys(Total);
  // Per project: parsed (a cache miss) and its diagnostics count.
  std::vector<uint8_t> Parsed(Total, 0);
  std::vector<size_t> ParseDiagnostics(Total, 0);

  // Per-project isolation boundary. Failures land in per-index slots, so
  // the quarantine set, its order, and (under Strict) the surfaced
  // exception are all independent of the thread schedule.
  std::vector<std::string> FailReason(Total);
  std::vector<std::exception_ptr> FailCause(Total);
  std::vector<uint8_t> FailedAt(Total, 0);
  std::atomic<bool> AnyFailed{false};
  std::mutex HealthMutex; // Guards Health.CacheIncidents during fan-out.

  std::mutex ProgressMutex;
  size_t Done = 0;
  auto BuildOne = [&](size_t I, unsigned) {
    // Strict fail-fast: once one project failed, skip the rest (the
    // captured exception rethrows after the join).
    if (Opts.Strict && AnyFailed.load(std::memory_order_relaxed))
      return;
    Timer ProjectClock;
    bool Loaded = false;
    try {
      if (RunDeadline.expired())
        throw DeadlineError("run deadline expired before project build");
      if (fault::enabled())
        fault::maybeThrow(fault::Point::Parse, I);
      // With a cache, try to adopt the stored frontend output; the codec
      // is canonical, so a hit is structurally identical to a fresh build
      // and every downstream stage stays bit-deterministic. Misses
      // (including evicted corrupt entries) rebuild and write back. A
      // *throwing* cache (filesystem exceptions, injected faults) is
      // degraded to a rebuild / skipped write-back, never a quarantine:
      // the cache is transparent, so the run stays byte-identical.
      std::optional<PropagationGraph> FromCache;
      cache::CacheKey Key;
      // The shard cache keys off the graph key even when the graph cache
      // itself is disabled.
      if (Cache || SCache) {
        Key = cache::projectCacheKey(*Projects[I], Opts.Build);
        Keys[I] = Key;
      }
      if (Cache) {
        try {
          if (fault::enabled())
            fault::maybeThrow(fault::Point::CacheRead, I);
          FromCache = Cache->load(Key);
        } catch (const std::exception &E) {
          std::lock_guard<std::mutex> Lock(HealthMutex);
          Health.CacheIncidents.push_back(
              "project " + Projects[I]->name() +
              ": cache read degraded to rebuild: " + E.what());
        }
      }
      if (FromCache) {
        PerProject[I] = std::move(*FromCache);
        Loaded = true;
      } else {
        std::vector<pyast::ParseError> Diagnostics;
        PerProject[I] =
            buildProjectGraph(*Projects[I], Opts.Build, &Diagnostics);
        Parsed[I] = 1;
        ParseDiagnostics[I] = Diagnostics.size();
        if (fault::enabled())
          fault::maybeThrow(fault::Point::GraphBuild, I);
        if (Cache) {
          try {
            if (fault::enabled())
              fault::maybeThrow(fault::Point::CacheWrite, I);
            Cache->store(Key, PerProject[I]);
          } catch (const std::exception &E) {
            std::lock_guard<std::mutex> Lock(HealthMutex);
            Health.CacheIncidents.push_back(
                "project " + Projects[I]->name() +
                ": cache write skipped: " + E.what());
          }
        }
      }
    } catch (...) {
      // Quarantine: drop any partial graph so the merge below sees either
      // a complete per-project graph or nothing.
      PerProject[I] = PropagationGraph();
      FailCause[I] = std::current_exception();
      try {
        throw;
      } catch (const std::exception &E) {
        FailReason[I] = E.what();
      } catch (...) {
        FailReason[I] = "unknown exception";
      }
      FailedAt[I] = 1;
      AnyFailed.store(true, std::memory_order_relaxed);
    }
    if (ProjectTimer && !Loaded && !FailedAt[I])
      ProjectTimer->record(ProjectClock.seconds());
    if (Observer) {
      std::lock_guard<std::mutex> Lock(ProgressMutex);
      Observer->onProjectGraphBuilt(++Done, Total);
    }
  };
  if (P)
    P->parallelFor(Total, BuildOne);
  else
    for (size_t I = 0; I < Total; ++I)
      BuildOne(I, 0);

  if (Opts.Strict && AnyFailed.load(std::memory_order_relaxed)) {
    for (size_t I = 0; I < Total; ++I)
      if (FailedAt[I])
        std::rethrow_exception(FailCause[I]);
  }

  // Deterministic merge: append the survivors in corpus order, so event
  // ids and file indices are identical to a serial walk over only the
  // surviving projects — quarantined ones contribute nothing. With a
  // shard cache, each survivor's file range within the global graph is
  // recorded so generateConstraints can slice its shard back out.
  PropagationGraph Merged;
  size_t NumEvents = 0, NumFiles = 0, NumOptions = 0, NumEdges = 0;
  for (size_t I = 0; I < Total; ++I)
    if (!FailedAt[I]) {
      NumEvents += PerProject[I].numEvents();
      NumFiles += PerProject[I].files().size();
      NumOptions += PerProject[I].numOptions();
      NumEdges += PerProject[I].numEdges();
    }
  Merged.reserve(NumEvents, NumFiles, NumOptions, NumEdges);
  Slices.clear();
  bool DeadlineHit = false;
  for (size_t I = 0; I < Total; ++I) {
    if (FailedAt[I]) {
      Health.Quarantined.push_back(
          {I, Projects[I]->name(), FailReason[I]});
      if (FailCause[I]) {
        try {
          std::rethrow_exception(FailCause[I]);
        } catch (const DeadlineError &) {
          DeadlineHit = true;
        } catch (...) {
        }
      }
      PerProject[I] = PropagationGraph();
      continue;
    }
    if (Parsed[I]) {
      Incr.FilesParsed += Projects[I]->modules().size();
      Incr.ParseDiagnostics += ParseDiagnostics[I];
    }
    uint32_t FileBegin = static_cast<uint32_t>(Merged.files().size());
    Merged.append(std::move(PerProject[I])); // Frees it as we go.
    if (SCache)
      Slices.push_back({I, Keys[I], FileBegin,
                        static_cast<uint32_t>(Merged.files().size())});
  }
  SlicesValid = SCache != nullptr;
  if (DeadlineHit) {
    Health.DeadlineExpired = true;
    Health.DeadlineStage = phaseName(Phase::BuildGraph);
  }
  BuildSpan.finish();
  if (Reg.enabled()) {
    Reg.gauge("build.projects").set(static_cast<double>(Total));
    Reg.gauge("build.files").set(static_cast<double>(Merged.files().size()));
    Reg.gauge("build.events").set(static_cast<double>(Merged.numEvents()));
    if (!Health.Quarantined.empty())
      Reg.counter("health.quarantined").add(Health.Quarantined.size());
    if (!Health.CacheIncidents.empty())
      Reg.counter("health.cache_incidents")
          .add(Health.CacheIncidents.size());
  }
  publish(std::move(Merged));
  return *this;
}

Session &Session::generateConstraints(const spec::SeedSpec &Seed) {
  buildGraph();
  armDeadline(); // adoptGraph() skips buildGraph's arming.
  unsigned Jobs = resolveJobs();
  ThreadPool *P = poolFor(Jobs);
  if (Observer)
    Observer->onPhase(Phase::GenerateConstraints);

  metrics::Registry &Reg = metrics::Registry::global();
  trace::Span GenSpan(Reg, "session/constraints");
  const PropagationGraph *LearnGraph = Graph.get();
  PropagationGraph Collapsed;
  if (Opts.CollapseForLearning) {
    Collapsed = Graph->collapseByRep();
    LearnGraph = &Collapsed;
  }
  // Representation frequencies always come from the uncollapsed graph
  // (Reps): contraction collapses every representation to one occurrence,
  // which would starve the §4.3 frequency cutoff.
  // The parse counters stay buildGraph()'s; the shard counters restart.
  Incr.ShardsHit = Incr.ShardsRebuilt = Incr.ShardsStored = 0;
  // The incremental path composes per-project shards; it requires the
  // per-project slices buildGraph records (adopted graphs have none) and
  // an uncollapsed learning graph — vertex contraction crosses project
  // boundaries, so a collapsed system is not per-project composable.
  bool UseShards = SCache && SlicesValid && !Opts.CollapseForLearning;
  try {
    if (UseShards)
      System = composeFromShards(Seed, P);
    else
      System = constraints::generateConstraints(*LearnGraph, Reps, Seed,
                                                Opts.Gen, P, &RunDeadline);
  } catch (const DeadlineError &) {
    // Constraint generation is all-or-nothing (a truncated system would
    // change the learned scores silently), so expiry propagates — but the
    // health report records which stage the budget killed.
    Health.DeadlineExpired = true;
    Health.DeadlineStage = phaseName(Phase::GenerateConstraints);
    throw;
  }
  SystemFromShards = UseShards;
  GenSpan.finish();
  if (Reg.enabled()) {
    Reg.gauge("gen.constraints")
        .set(static_cast<double>(System.Constraints.size()));
    Reg.gauge("gen.vars").set(static_cast<double>(System.Vars.numVars()));
    Reg.gauge("gen.candidates")
        .set(static_cast<double>(System.NumCandidates));
    Reg.gauge("gen.avg_backoff").set(System.AvgBackoffOptions);
    Reg.gauge("gen.pinned").set(static_cast<double>(System.Pinned.size()));
    if (UseShards) {
      Reg.gauge("incr.shards_hit")
          .set(static_cast<double>(Incr.ShardsHit));
      Reg.gauge("incr.shards_rebuilt")
          .set(static_cast<double>(Incr.ShardsRebuilt));
      Reg.gauge("incr.shards_stored")
          .set(static_cast<double>(Incr.ShardsStored));
    }
  }
  SystemReady = true;
  return *this;
}

constraints::ConstraintSystem
Session::composeFromShards(const spec::SeedSpec &Seed, ThreadPool *P) {
  metrics::Registry &Reg = metrics::Registry::global();
  const size_t N = Slices.size();
  std::vector<constraints::ConstraintShard> Shards(N);
  std::vector<uint8_t> Hit(N, 0), Stored(N, 0);
  std::mutex HealthMutex;
  auto Incident = [&](const ProjectSlice &Slice, const std::string &What) {
    std::lock_guard<std::mutex> Lock(HealthMutex);
    Health.CacheIncidents.push_back(
        "project " + Projects[Slice.ProjectIndex]->name() + ": " + What);
  };

  // Load-or-extract fans out over projects; each worker touches disjoint
  // slots. Like the graph cache, a *throwing* shard cache degrades to a
  // re-extraction / skipped write-back — the cache is transparent, so the
  // system stays byte-identical either way.
  auto ShardOne = [&](size_t I, unsigned) {
    // Cooperative cancellation at the project boundary: generation is
    // all-or-nothing, so expiry is a hard error (rethrown
    // deterministically by parallelFor).
    if (RunDeadline.expired())
      throw DeadlineError("deadline expired during shard extraction");
    const ProjectSlice &Slice = Slices[I];
    cache::CacheKey Key =
        cache::projectShardKey(Slice.GraphKey, Opts.Gen, Seed);
    std::optional<constraints::ConstraintShard> FromCache;
    try {
      FromCache = SCache->load(Key);
    } catch (const std::exception &E) {
      Incident(Slice, std::string("shard read degraded to re-extraction: ") +
                          E.what());
    }
    // Cached ids index the slice's events directly, so a shard that does
    // not fit them is never used.
    if (FromCache && !constraints::shardFits(*FromCache, *Graph,
                                             Slice.FileBegin, Slice.FileEnd)) {
      Incident(Slice, "cached shard does not fit the project's graph; "
                      "re-extracted");
      FromCache.reset();
    }
    if (FromCache) {
      Shards[I] = std::move(*FromCache);
      Hit[I] = 1;
      return;
    }
    Shards[I] =
        constraints::extractShard(*Graph, Slice.FileBegin, Slice.FileEnd);
    try {
      if (SCache->store(Key, Shards[I]))
        Stored[I] = 1;
    } catch (const std::exception &E) {
      Incident(Slice, std::string("shard write skipped: ") + E.what());
    }
  };
  if (P)
    P->parallelFor(N, ShardOne);
  else
    for (size_t I = 0; I < N; ++I)
      ShardOne(I, 0);

  for (size_t I = 0; I < N; ++I) {
    Incr.ShardsHit += Hit[I];
    Incr.ShardsRebuilt += 1 - Hit[I];
    Incr.ShardsStored += Stored[I];
  }

  // One generation over the graph, each project file emitting its shard's
  // anchors: the per-file blocks merge in file order, so the system is
  // byte-identical to direct generation at any Jobs value.
  Timer MergeTimer;
  std::vector<const constraints::ShardFile *> Cached(Graph->files().size(),
                                                     nullptr);
  for (size_t I = 0; I < N; ++I)
    for (uint32_t F = Slices[I].FileBegin; F < Slices[I].FileEnd; ++F)
      Cached[F] = &Shards[I].Files[F - Slices[I].FileBegin];
  constraints::ConstraintSystem Sys = constraints::generateConstraints(
      *Graph, Reps, Seed, Opts.Gen, P, &RunDeadline, Cached);
  if (Reg.enabled())
    Reg.timer("incr.merge_seconds").record(MergeTimer.seconds());
  return Sys;
}

bool Session::pinVariable(const std::string &Rep, propgraph::Role R,
                          double Value) {
  assert(SystemReady &&
         "Session::pinVariable() requires generateConstraints() first");
  propgraph::RepId Id;
  constraints::VarId V;
  if (!Reps.lookup(Rep, Id) || !System.Vars.lookup(Id, R, V))
    return false;
  for (auto &[Var, Pinned] : System.Pinned)
    if (Var == V) {
      Pinned = Value;
      return true;
    }
  System.Pinned.emplace_back(V, Value);
  return true;
}

PipelineResult Session::assembleResult(unsigned Jobs) {
  trace::Span Assemble(metrics::Registry::global(), "session/assemble");
  PipelineResult Result;
  Result.Graph = Graph;
  Result.Reps = Reps;
  Result.System = System;
  Result.Health = Health;
  Result.JobsUsed = Jobs;
  Result.UsedCache = Cache != nullptr;
  if (Cache)
    Result.Cache = Cache->stats();
  Result.UsedShardCache = SystemFromShards;
  if (SCache)
    Result.ShardCacheStats = SCache->stats();

  // Feedback reweighting: append the evidence rows to this result's copy
  // of the system (the session's own System stays row-clean, so dropping
  // the feedback later needs no regeneration). The rows are ordinary
  // constraints, so every backend sees them identically; an empty set
  // appends nothing and the run is byte-identical to the passive path.
  if (Opts.Feedback && !Opts.Feedback->empty()) {
    Result.UsedFeedback = true;
    Result.Feedback = constraints::applyFeedback(
        Result.System, Result.Reps, *Opts.Feedback, Opts.FeedbackOpts);
  }
  Incr.WarmStarted = Opts.WarmStart != nullptr;
  Result.Incr = Incr;
  Result.Backend = Opts.Solve.Backend;
  return Result;
}

namespace {

/// Reads the solver point back: one score per (representation, role)
/// variable.
void readBackScores(PipelineResult &Result) {
  const constraints::VarTable &Vars = Result.System.Vars;
  for (uint32_t V = 0; V < Vars.numVars(); ++V) {
    const std::string &Rep = Result.Reps.repString(Vars.repOf(V));
    Result.Learned.setScore(Rep, Vars.roleOf(V), Result.Solve.X[V]);
  }
}

} // namespace

PipelineResult Session::solve() {
  assert(SystemReady &&
         "Session::solve() requires generateConstraints() first");
  armDeadline();
  unsigned Jobs = resolveJobs();
  ThreadPool *P = poolFor(Jobs);
  if (Observer)
    Observer->onPhase(Phase::Solve);

  PipelineResult Result = assembleResult(Jobs);
  // The starting point: zero, the cold start. A warm start seeds each
  // variable with the previous run's score for its (representation,
  // role); variables new to this system keep the cold init (scores for
  // unseen representations are zero, and minimize() projects the point,
  // re-applying the seed pins). A warm start moves only the starting
  // iterate: the objective, its minimizers, and the convergence test are
  // unchanged.
  const constraints::VarTable &Vars = Result.System.Vars;
  std::vector<double> X0(Vars.numVars(), 0.0);
  if (Opts.WarmStart)
    for (uint32_t V = 0; V < Vars.numVars(); ++V)
      X0[V] = Opts.WarmStart->score(Result.Reps.repString(Vars.repOf(V)),
                                    Vars.roleOf(V));
  solver::SolveOptions SolveOpts = Opts.Solve;
  if (RunDeadline.armed()) {
    // The solver polls the run deadline between iterations, alongside the
    // caller's own stop condition.
    const Deadline *StopAt = &RunDeadline;
    auto UserStop = SolveOpts.ShouldStop;
    SolveOpts.ShouldStop = [StopAt, UserStop]() {
      return StopAt->expired() || (UserStop && UserStop());
    };
  }

  metrics::Registry &Reg = metrics::Registry::global();
  trace::Span SolveSpan(Reg, "session/solve");
  {
    // Child spans split the stage into session/solve/{compile, iterate,
    // readback}.
    trace::Span Compile(Reg, "compile");
    solver::CompiledObjective Obj =
        Result.System.makeCompiledObjective(Opts.Lambda, P);
    Result.SolverStats = Obj.stats();
    Result.SimdActive = Obj.simdActive();
    Result.NarrowOperands = Obj.narrowOperands();
    Compile.finish();
    trace::Span Iterate(Reg, "iterate");
    Result.Solve =
        solver::AdamOptimizer(SolveOpts).minimize(Obj, std::move(X0));
  }
  {
    trace::Span Readback(Reg, "readback");
    readBackScores(Result);
  }
  SolveSpan.finish();

  if (Reg.enabled()) {
    const solver::CompileStats &CS = Result.SolverStats;
    Reg.gauge("solver.rows_before").set(static_cast<double>(CS.RowsBefore));
    Reg.gauge("solver.rows_after").set(static_cast<double>(CS.RowsAfter));
    Reg.gauge("solver.terms_before")
        .set(static_cast<double>(CS.TermsBefore));
    Reg.gauge("solver.nonzeros").set(static_cast<double>(CS.NonZeros));
    Reg.gauge("solver.max_multiplicity")
        .set(static_cast<double>(CS.MaxMultiplicity));
    Reg.gauge("solver.backend")
        .set(static_cast<double>(Result.Backend));
    Reg.gauge("solver.simd_active").set(Result.SimdActive ? 1.0 : 0.0);
    Reg.gauge("solve.final_objective").set(Result.Solve.FinalObjective);
    Reg.gauge("solve.converged").set(Result.Solve.Converged ? 1.0 : 0.0);
    Reg.gauge("incr.warm_start").set(Incr.WarmStarted ? 1.0 : 0.0);
    if (Result.UsedFeedback) {
      Reg.gauge("feedback.matched")
          .set(static_cast<double>(Result.Feedback.Matched));
      Reg.gauge("feedback.unmatched")
          .set(static_cast<double>(Result.Feedback.Unmatched));
      Reg.gauge("feedback.evidence_rows")
          .set(static_cast<double>(Result.Feedback.EvidenceRows));
      Reg.gauge("feedback.propagated_rows")
          .set(static_cast<double>(Result.Feedback.PropagatedRows));
    }
    const solver::SolveResult &Solve = Result.Solve;
    if (Solve.NonFiniteSteps > 0)
      Reg.counter("health.solver_nonfinite")
          .add(static_cast<uint64_t>(Solve.NonFiniteSteps));
    if (Solve.Recoveries > 0)
      Reg.counter("health.solver_recoveries")
          .add(static_cast<uint64_t>(Solve.Recoveries));
    Reg.gauge("health.solver_fellback").set(Solve.FellBack ? 1.0 : 0.0);
    Reg.gauge("health.deadline_expired")
        .set(Health.DeadlineExpired || Solve.DeadlineExpired ? 1.0 : 0.0);
    Reg.gauge("health.status")
        .set(static_cast<double>(Result.status()));
    if (fault::enabled())
      Reg.gauge("health.fault_trips")
          .set(static_cast<double>(fault::totalTrips()));
  }
  return Result;
}

bool Session::restoreSolve(const solver::SolveResult &Restored,
                           PipelineResult &Out) {
  assert(SystemReady &&
         "Session::restoreSolve() requires generateConstraints() first");
  if (Restored.X.size() != System.Vars.numVars())
    return false;

  // The same assembly as solve(), feedback rows included, so a restored
  // result is indistinguishable from a freshly solved one to every
  // consumer, its status included.
  Out = assembleResult(resolveJobs());
  Out.Solve = Restored;
  readBackScores(Out);
  return true;
}
