//===- e2ebench/src/LearnWorkloads.cpp - learn_cold and relearn_incr ------===//
//
// Both learn workloads time the path of `seldon learn`: read the seed
// specification, load and parse every project directory, build the
// propagation graph, generate constraints, solve, and write the learned
// specification. learn_cold does this without caches; relearn_incr primes
// the graph and shard caches, edits 1% of the projects before every op,
// and re-learns warm-started from the previous spec, as
// `seldon learn --cache-dir D --shard-cache` does.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"

#include "eval/Precision.h"
#include "infer/Pipeline.h"
#include "pyast/Lexer.h"
#include "pyast/Parser.h"
#include "pysem/ProjectLoader.h"
#include "solver/AdamOptimizer.h"
#include "spec/SpecIO.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <stdexcept>

namespace fs = std::filesystem;
using namespace seldon;

namespace e2e {
namespace {

constexpr double Threshold = 0.1;
constexpr int Iterations = 600;
/// Measured ops per run, at least, however long each takes.
constexpr int MinOps = 3;

/// The options `seldon learn` runs with (compiled backend, 600
/// iterations, cutoff 5).
infer::PipelineOptions learnOptions(unsigned Jobs) {
  infer::PipelineOptions Opts;
  Opts.Solve.MaxIterations = Iterations;
  Opts.Gen.RepCutoff = 5;
  Opts.Jobs = Jobs;
  Opts.Solve.Backend = solver::SolverBackend::Compiled;
  return Opts;
}

struct LearnSetup {
  const DiskCorpus *Corpus = nullptr;
  std::string OutPath;
  /// Graph cache directory (shards under /shards); empty = no caches.
  std::string CacheDir;
  unsigned Jobs = 1;
  /// Warm-start from the spec at OutPath when one exists.
  bool WarmStart = false;
};

/// What one learn op produced and what it cost.
struct LearnRun {
  double Seconds = 0.0;
  int64_t Root = -1;
  spec::LearnedSpec Learned;
  size_t Events = 0;
  size_t Constraints = 0;
  size_t RowsAfter = 0;
  const char *Backend = "";
  int SolveIterations = 0;
  bool Converged = false;
  bool SimdActive = false;
  bool WarmStarted = false;
  cache::CacheStats GraphCache;
  cache::CacheStats ShardCache;
  infer::IncrStats Incr;
  uint64_t FilesParsed = 0;
};

std::vector<pysem::Project> loadCorpus(const DiskCorpus &C, unsigned Jobs) {
  std::vector<std::optional<pysem::Project>> Loaded =
      pysem::loadProjectsFromDirs(C.Dirs, pysem::LoadOptions(), Jobs);
  std::vector<pysem::Project> Projects;
  Projects.reserve(Loaded.size());
  for (std::optional<pysem::Project> &P : Loaded) {
    if (!P)
      throw std::runtime_error("a corpus directory is missing");
    Projects.push_back(std::move(*P));
  }
  return Projects;
}

/// One learn op, spans around every call into a layer. Throws on an
/// error that makes the run meaningless (unreadable inputs, failed write).
LearnRun learnOnce(const LearnSetup &L, Tracer &T, bool Traced,
                   uint64_t Request = 0) {
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.reset();
  // The traced op also turns on the program's own counters (parse.files),
  // which is part of the overhead the traced run reports.
  Reg.setEnabled(Traced);
  T.setOn(Traced);

  LearnRun Run;
  double Start = now();
  {
    ScopedSpan Op(T, "learn", -1, Request);
    Run.Root = Op.id();

    spec::SeedSpec Seed;
    spec::LearnedSpec Previous;
    bool HavePrevious = false;
    {
      ScopedSpan S(T, "spec.read", Op.id(), Request);
      spec::IOResult<spec::SeedSpec> Loaded =
          spec::loadSeedSpec(L.Corpus->SeedPath);
      if (!Loaded)
        throw std::runtime_error("seed: " + Loaded.Error);
      Seed = std::move(Loaded.Value);
      if (L.WarmStart && fs::exists(L.OutPath)) {
        spec::IOResult<spec::LearnedSpec> Prev =
            spec::loadLearnedSpec(L.OutPath);
        if (!Prev)
          throw std::runtime_error("previous spec: " + Prev.Error);
        Previous = std::move(Prev.Value);
        HavePrevious = true;
      }
    }

    std::vector<pysem::Project> Projects;
    {
      ScopedSpan S(T, "pysem.load", Op.id(), Request);
      Projects = loadCorpus(*L.Corpus, L.Jobs);
    }

    auto Session = std::make_unique<infer::Session>(learnOptions(L.Jobs));
    if (!L.CacheDir.empty()) {
      ScopedSpan S(T, "cache.open", Op.id(), Request);
      Session->enableCache(L.CacheDir);
      Session->enableShardCache(L.CacheDir + "/shards");
      if (!Session->graphCache()->valid() || !Session->shardCache()->valid())
        throw std::runtime_error("cache directory unusable");
    }
    if (HavePrevious)
      Session->options().WarmStart = &Previous;
    Session->addProjects(Projects);

    {
      ScopedSpan S(T, "propgraph.build", Op.id(), Request);
      Session->buildGraph();
    }
    Run.Events = Session->graph().numEvents();
    {
      ScopedSpan S(T, "constraints.gen", Op.id(), Request);
      Session->generateConstraints(Seed);
    }
    auto R = std::make_unique<infer::PipelineResult>();
    {
      ScopedSpan S(T, "infer.solve", Op.id(), Request);
      *R = Session->solve();
    }
    {
      ScopedSpan S(T, "spec.write", Op.id(), Request);
      spec::IOResult<size_t> Saved =
          spec::saveLearnedSpec(R->Learned, L.OutPath, Threshold);
      if (!Saved)
        throw std::runtime_error("spec write: " + Saved.Error);
    }

    Run.Learned = std::move(R->Learned);
    Run.Constraints = R->System.Constraints.size();
    Run.RowsAfter = R->SolverStats.RowsAfter;
    Run.Backend = solver::solverBackendName(R->Backend);
    Run.SolveIterations = R->Solve.Iterations;
    Run.Converged = R->Solve.Converged;
    Run.SimdActive = R->SimdActive;
    Run.WarmStarted = R->Incr.WarmStarted;
    Run.GraphCache = R->Cache;
    Run.ShardCache = R->ShardCacheStats;
    Run.Incr = R->Incr;

    // `seldon learn` frees all of this before it exits.
    ScopedSpan S(T, "learn.teardown", Op.id(), Request);
    R.reset();
    Session.reset();
    Projects.clear();
    Projects.shrink_to_fit();
  }
  Run.Seconds = now() - Start;
  if (Traced)
    Run.FilesParsed = Reg.counter("parse.files").value();
  Reg.setEnabled(false);
  Reg.reset();
  T.setOn(false);
  return Run;
}

using RoleSets = std::vector<std::vector<std::string>>;

RoleSets roleSets(const spec::LearnedSpec &L) {
  spec::TaintSpec S = L.toSpec(Threshold);
  return {S.sortedReps(propgraph::Role::Source),
          S.sortedReps(propgraph::Role::Sanitizer),
          S.sortedReps(propgraph::Role::Sink)};
}

/// (representation, role) pairs selected at the threshold by exactly one
/// of \p A and \p B.
size_t roleFlips(const RoleSets &A, const RoleSets &B) {
  size_t Flips = 0;
  for (size_t R = 0; R < A.size(); ++R) {
    std::vector<std::string> Diff;
    std::set_symmetric_difference(A[R].begin(), A[R].end(), B[R].begin(),
                                  B[R].end(), std::back_inserter(Diff));
    Flips += Diff.size();
  }
  return Flips;
}

/// Lexes and parses every corpus file serially through pyast, timing the
/// two stages apart. Sets the pyast.* figures.
void measureFrontend(const DiskCorpus &C, Outcome &Out) {
  std::vector<std::string> Sources;
  for (const std::string &Dir : C.Dirs)
    for (const std::string &File : listPyFiles(Dir)) {
      Sources.emplace_back();
      if (!readWholeFile(File, Sources.back()))
        throw std::runtime_error("cannot read " + File);
    }
  double Bytes = 0.0, LexSeconds = 0.0, ParseSeconds = 0.0;
  for (const std::string &Src : Sources) {
    double T0 = now();
    pyast::Lexer Lex(Src);
    std::vector<pyast::Token> Tokens = Lex.lexAll();
    double T1 = now();
    pyast::AstContext Ctx;
    pyast::Parser P(Ctx, std::move(Tokens));
    P.parseModule();
    LexSeconds += T1 - T0;
    ParseSeconds += now() - T1;
    Bytes += static_cast<double>(Src.size());
  }
  Out.set("pyast.lex_mb_per_s", Bytes / 1e6 / LexSeconds, "MB/s",
          Sources.size());
  Out.set("pyast.parse_mb_per_s", Bytes / 1e6 / ParseSeconds, "MB/s",
          Sources.size());
}

/// Times the solver apart from the session: compiling the constraint
/// system, a cold 600-iteration Adam run over the compiled objective, and
/// Session::solve capped at one iteration (its copies, compile and
/// readback). Sets the solver.* and infer.solve_fixed_s figures.
void measureSolver(const DiskCorpus &C, unsigned Jobs, Outcome &Out) {
  std::vector<pysem::Project> Projects = loadCorpus(C, Jobs);
  infer::Session S(learnOptions(Jobs));
  S.addProjects(Projects);
  S.generateConstraints(C.Seed);

  double T0 = now();
  solver::CompiledObjective Obj =
      S.system().makeCompiledObjective(S.options().Lambda);
  double Compile = now() - T0;
  ThreadPool Pool(Jobs);
  Obj.setThreadPool(&Pool);
  solver::AdamOptimizer Adam(S.options().Solve);
  T0 = now();
  solver::SolveResult R = Adam.minimize(Obj);
  double Iterate = now() - T0;
  Out.set("solver.compile_s", Compile, "s");
  Out.set("solver.iterate_s", Iterate, "s");
  Out.set("solver.nnz_iter_per_s",
          static_cast<double>(Obj.numNonZeros()) * R.Iterations / Iterate,
          "1/s");

  S.options().Solve.MaxIterations = 1;
  T0 = now();
  infer::PipelineResult Fixed = S.solve();
  Out.set("infer.solve_fixed_s", now() - T0, "s");
}

/// Runs measured ops until Cfg.Seconds have passed (at least MinOps).
/// \p Before prepares op I; \p Check returns the op's failed checks. In
/// the traced run every other op is traced, so traced and untraced op
/// times come from the same run and their difference is the overhead.
template <class BeforeFn, class CheckFn>
std::vector<std::pair<LearnRun, bool>>
measureOps(const RunConfig &Cfg, const LearnSetup &L, Tracer &T,
           Outcome &Out, BeforeFn Before, CheckFn Check) {
  std::vector<std::pair<LearnRun, bool>> Runs;
  double End = now() + Cfg.Seconds;
  for (int I = 0; I < MinOps || now() < End; ++I) {
    Before(I);
    bool Traced = Cfg.Trace && I % 2 == 0;
    LearnRun Run = learnOnce(L, T, Traced, static_cast<uint64_t>(I) + 1);
    Out.op(Check(Run));
    Runs.emplace_back(std::move(Run), Traced);
  }
  return Runs;
}

void reportLearn(const RunConfig &Cfg, const DiskCorpus &C,
                 const std::vector<double> &SetupSeconds,
                 const std::vector<std::pair<LearnRun, bool>> &Runs,
                 const Tracer &T, Outcome &Out) {
  std::vector<double> Untraced, Traced;
  for (const auto &[Run, IsTraced] : Runs)
    (IsTraced ? Traced : Untraced).push_back(Run.Seconds);
  const LearnRun &Last = Runs.back().first;
  // Scored on the first op: every later re-learn warm-starts from its
  // predecessor, so only the first spec is independent of the op count.
  const LearnRun &First = Runs.front().first;

  std::string Times;
  for (const auto &[Run, IsTraced] : Runs)
    Times += " " + std::to_string(Run.Seconds) + (IsTraced ? "t" : "");
  std::printf("# op seconds:%s\n", Times.c_str());

  Out.set("setup_s", median(SetupSeconds), "s", SetupSeconds.size());
  Out.set("op_p50_ms", 1000.0 * median(Untraced), "ms", Untraced.size());
  Out.set("learn_s", median(Untraced), "s", Untraced.size());
  Out.set("peak_rss_mb", peakRssMb(), "MB");
  Out.set("macro_f1",
          eval::macroF1(First.Learned, C.Truth, C.Seed, Threshold), "ratio");

  Out.meta("projects", static_cast<double>(C.Dirs.size()));
  Out.meta("files", static_cast<double>(C.Files));
  Out.meta("mb", C.megabytes());
  Out.meta("materialize_s", C.Seconds);
  Out.meta("constraints", static_cast<double>(Last.Constraints));
  Out.meta("rows_after_dedup", static_cast<double>(Last.RowsAfter));
  Out.meta("backend", Last.Backend);
  Out.meta("simd_active", Last.SimdActive ? 1.0 : 0.0);
  Out.meta("warm_started", Last.WarmStarted ? 1.0 : 0.0);

  if (!Cfg.Trace)
    return;

  // Per-layer figures: medians over the traced ops.
  std::map<std::string, std::vector<double>> Self;
  std::vector<double> Parsed, GraphHit, ShardHit, BytesRead, Events, Rows;
  for (const auto &[Run, IsTraced] : Runs) {
    if (!IsTraced)
      continue;
    for (const auto &[Name, Seconds] : T.selfByName(Run.Root))
      Self[Name].push_back(Seconds);
    Parsed.push_back(static_cast<double>(Run.FilesParsed));
    uint64_t Lookups = Run.GraphCache.Hits + Run.GraphCache.Misses;
    GraphHit.push_back(Lookups ? static_cast<double>(Run.GraphCache.Hits) /
                                     static_cast<double>(Lookups)
                               : 0.0);
    uint64_t Shards = Run.Incr.ShardsHit + Run.Incr.ShardsRebuilt;
    ShardHit.push_back(Shards ? static_cast<double>(Run.Incr.ShardsHit) /
                                    static_cast<double>(Shards)
                              : 0.0);
    BytesRead.push_back(
        static_cast<double>(Run.GraphCache.BytesRead +
                            Run.ShardCache.BytesRead) /
        1e6);
    Events.push_back(static_cast<double>(Run.Events));
    Rows.push_back(static_cast<double>(Run.Constraints));
  }
  size_t N = Traced.size();
  auto Layer = [&](const char *Span) { return median(Self[Span]); };
  auto SetLayer = [&](const char *Metric, const char *Span) {
    Out.set(Metric, Layer(Span), "s", Self[Span].size());
  };
  double TracedMedian = median(Traced);
  Out.set("trace.learn_s", TracedMedian, "s", N);
  Out.set("trace.overhead_s", TracedMedian - median(Untraced), "s",
          N + Untraced.size());
  SetLayer("trace.unattributed_s", "learn");
  SetLayer("spec.read_s", "spec.read");
  SetLayer("pysem.load_s", "pysem.load");
  Out.set("pysem.load_mb_per_s", C.megabytes() / Layer("pysem.load"), "MB/s",
          N);
  Out.set("pysem.files_parsed", median(Parsed), "count", N);
  SetLayer("cache.open_s", "cache.open");
  Out.set("cache.graph_hit_ratio", median(GraphHit), "ratio", N);
  Out.set("cache.shard_hit_ratio", median(ShardHit), "ratio", N);
  Out.set("cache.bytes_read_mb", median(BytesRead), "MB", N);
  SetLayer("propgraph.build_s", "propgraph.build");
  Out.set("propgraph.events_per_s",
          median(Events) / Layer("propgraph.build"), "1/s", N);
  SetLayer("constraints.gen_s", "constraints.gen");
  Out.set("constraints.rows", median(Rows), "count", N);
  Out.set("constraints.rows_per_s", median(Rows) / Layer("constraints.gen"),
          "1/s", N);
  SetLayer("infer.solve_s", "infer.solve");
  Out.set("solver.iterations", Last.SolveIterations, "count");
  Out.set("solver.converged", Last.Converged ? 1.0 : 0.0, "count");
  SetLayer("spec.write_s", "spec.write");
  SetLayer("learn.teardown_s", "learn.teardown");

  // The layers' self times cover the op: their means add up to the mean
  // traced op, and what no layer span covers (the root's own self time)
  // must stay within the tracing overhead.
  double Covered = 0.0, Unattributed = 0.0, Mean = 0.0;
  for (const auto &[Name, Samples] : Self) {
    double Sum = 0.0;
    for (double S : Samples)
      Sum += S;
    (Name == "learn" ? Unattributed : Covered) += Sum / N;
  }
  for (double S : Traced)
    Mean += S / N;
  std::printf("# self times (means over traced ops): layers %.4f s + "
              "unattributed %.4f s = %.4f s; traced learn %.4f s; tracing "
              "overhead %.4f s\n",
              Covered, Unattributed, Covered + Unattributed, Mean,
              TracedMedian - median(Untraced));

  measureFrontend(C, Out);
  measureSolver(C, Cfg.Jobs, Out);
}

bool prepare(const RunConfig &Cfg, DiskCorpus &C) {
  std::string Error;
  if (!materializeCorpus(Cfg, C, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  return true;
}

} // namespace

bool runLearnCold(const RunConfig &Cfg, Outcome &Out) {
  DiskCorpus C;
  if (!prepare(Cfg, C))
    return false;
  LearnSetup L{&C, Cfg.WorkDir + "/learned.spec", "", Cfg.Jobs};
  Tracer &T = tracer();

  // Set-up: warm-up learns. The first one's spec is the reference every
  // later learn must reproduce byte for byte.
  std::string Reference;
  std::vector<double> SetupSeconds;
  auto SameSpec = [&](std::vector<std::string> &Problems) {
    std::string Bytes;
    if (!readWholeFile(L.OutPath, Bytes))
      Problems.push_back("learned spec missing");
    else if (Reference.empty())
      Reference = Bytes;
    else if (Bytes != Reference)
      Problems.push_back("learned spec bytes differ from the first learn");
  };
  for (int I = 0; I < SetupsPerRun; ++I) {
    SetupSeconds.push_back(learnOnce(L, T, false).Seconds);
    std::vector<std::string> Problems;
    SameSpec(Problems);
    Out.op(Problems);
  }

  auto Runs = measureOps(
      Cfg, L, T, Out, [](int) {},
      [&](const LearnRun &) {
        std::vector<std::string> Problems;
        SameSpec(Problems);
        return Problems;
      });
  reportLearn(Cfg, C, SetupSeconds, Runs, T, Out);
  return true;
}

bool runRelearnIncr(const RunConfig &Cfg, Outcome &Out) {
  DiskCorpus C;
  std::string Error;
  if (!prepare(Cfg, C))
    return false;
  // The ops edit project files, so they work on a private copy.
  if (!copyCorpus(C, Cfg.WorkDir + "/corpus", Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  LearnSetup L{&C, Cfg.WorkDir + "/learned.spec", Cfg.WorkDir + "/cache",
               Cfg.Jobs};
  Tracer &T = tracer();
  size_t N = C.Dirs.size();

  // Set-up: the priming cold learn that fills both caches, from an empty
  // cache and no previous spec each time.
  std::vector<double> SetupSeconds;
  RoleSets ColdRoles;
  for (int I = 0; I < SetupsPerRun; ++I) {
    fs::remove_all(L.CacheDir);
    fs::remove(L.OutPath);
    LearnRun Prime = learnOnce(L, T, false);
    SetupSeconds.push_back(Prime.Seconds);
    std::vector<std::string> Problems;
    if (Prime.Incr.ShardsRebuilt != N || Prime.GraphCache.Misses != N)
      Problems.push_back("priming learn did not fill the caches");
    ColdRoles = roleSets(Prime.Learned);
    Out.op(Problems);
  }
  L.WarmStart = true;

  // The edit set: a seeded 1% of the projects. Before op I, one file of
  // each gets the original text plus a trailing comment naming the op, so
  // every op changes exactly these projects relative to everything the
  // caches hold.
  size_t Edits = std::max<size_t>(1, N / 100);
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(Cfg.Seed * 0x2545f4914f6cdd1dull + 7);
  R.shuffle(Order);
  std::vector<std::pair<std::string, std::string>> Edited;
  for (size_t I = 0; I < Edits; ++I) {
    std::vector<std::string> Files = listPyFiles(C.Dirs[Order[I]]);
    std::string Text;
    if (Files.empty() || !readWholeFile(Files.front(), Text)) {
      std::fprintf(stderr, "error: cannot read the edit set\n");
      return false;
    }
    Edited.emplace_back(Files.front(), std::move(Text));
  }

  // The spec each op warm-starts from, kept for the uncached replay below.
  std::string WarmFrom;
  std::vector<double> Flips;
  auto Runs = measureOps(
      Cfg, L, T, Out,
      [&](int Op) {
        if (!readWholeFile(L.OutPath, WarmFrom))
          throw std::runtime_error("previous spec missing");
        for (const auto &[Path, Original] : Edited)
          if (!writeWholeFile(Path, Original + "# e2ebench edit " +
                                        std::to_string(Op) + "\n"))
            throw std::runtime_error("cannot edit " + Path);
      },
      [&](const LearnRun &Run) {
        std::vector<std::string> Problems;
        if (Run.Incr.ShardsRebuilt != Edits || Run.Incr.ShardsHit != N - Edits)
          Problems.push_back(
              "shards rebuilt " + std::to_string(Run.Incr.ShardsRebuilt) +
              ", replayed " + std::to_string(Run.Incr.ShardsHit) +
              "; expected " + std::to_string(Edits) + " and " +
              std::to_string(N - Edits));
        if (Run.GraphCache.Hits != N - Edits ||
            Run.GraphCache.Misses != Edits)
          Problems.push_back("graph cache hits " +
                             std::to_string(Run.GraphCache.Hits) +
                             ", expected " + std::to_string(N - Edits));
        if (!Run.WarmStarted)
          Problems.push_back("re-learn was not warm-started");
        Flips.push_back(
            static_cast<double>(roleFlips(roleSets(Run.Learned), ColdRoles)));
        return Problems;
      });

  // Caches change timings only: the last re-learn, repeated without caches
  // from the same previous spec over the same edited corpus, must write the
  // same bytes.
  {
    LearnSetup Uncached{&C, Cfg.WorkDir + "/uncached.spec", "", Cfg.Jobs,
                        true};
    std::string Cached, Plain;
    std::vector<std::string> Problems;
    if (!writeWholeFile(Uncached.OutPath, WarmFrom))
      throw std::runtime_error("cannot write " + Uncached.OutPath);
    learnOnce(Uncached, T, false);
    if (!readWholeFile(L.OutPath, Cached) ||
        !readWholeFile(Uncached.OutPath, Plain) || Cached != Plain)
      Problems.push_back("cached re-learn differs from the uncached one");
    Out.op(Problems);
  }
  // The warm start moves the answer away from the cold learn's; how far is
  // reported, not gated.
  Out.set("role_flips_vs_cold", median(Flips), "count", Flips.size());
  Out.meta("edited_projects", static_cast<double>(Edits));
  reportLearn(Cfg, C, SetupSeconds, Runs, T, Out);
  return true;
}

} // namespace e2e
