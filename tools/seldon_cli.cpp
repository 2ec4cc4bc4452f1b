//===- tools/seldon_cli.cpp - Command-line driver -------------------------===//
//
// The `seldon` command-line tool: run the paper's end-to-end pipeline on
// real directories of Python files.
//
//   seldon learn   [--seed FILE] [--out FILE] [options] DIR...
//       Learn a taint specification from one or more repositories and
//       write it in the scored text format.
//
//   seldon analyze [--seed FILE] [--spec FILE] [options] DIR...
//       Run the taint analyzer; reports are ranked by confidence and
//       deduplicated per (source API, sink API) pair.
//
//   seldon graph   [--dot] FILE.py
//       Print one file's propagation graph (text or Graphviz DOT).
//
//   seldon seed
//       Print the built-in App. B-style seed specification.
//
//===----------------------------------------------------------------------===//

#include "active/ActiveLearner.h"
#include "infer/Pipeline.h"
#include "propgraph/GraphExport.h"
#include "propgraph/GraphStats.h"
#include "pysem/ProjectLoader.h"
#include "service/FeedbackJson.h"
#include "service/QueryResult.h"
#include "spec/SpecIO.h"
#include "taint/JsonExport.h"
#include "taint/ReportRenderer.h"
#include "taint/TaintAnalyzer.h"

#include "support/ArgParser.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

using namespace seldon;
using seldon::formatString;

namespace {

struct CliOptions {
  std::string SeedFile;
  std::string SpecFile;
  std::string OutFile;
  double Threshold = 0.1;
  int Iterations = 600;
  size_t RepCutoff = 5;
  size_t Top = 25;
  unsigned Jobs = 0; // 0 = all hardware threads.
  bool Strict = false;
  double DeadlineSeconds = 0.0;
  std::string CacheDir;
  bool ShardCache = false;
  bool NoWarmStart = false;
  bool CacheStats = false;
  bool Progress = false;
  bool Metrics = false;
  std::string MetricsOut;
  bool SolverStats = false;
  std::string SolverBackend = "compiled";
  bool Dot = false;
  bool Dedup = true;
  bool Json = false;
  bool Active = false;
  std::string OracleFile;
  std::string OracleOut;
  int Rounds = 10;
  size_t QueriesPerRound = 8;
  std::string FeedbackFile;
  std::string ExplainRep;
  std::string ExplainRole = "source";
  std::vector<std::string> Paths;
};

/// Resolves --solver-backend into a SolveOptions backend; false + stderr
/// diagnostic on bad names.
bool resolveBackend(const CliOptions &Opts, solver::SolverBackend &Out) {
  if (!solver::parseSolverBackend(Opts.SolverBackend, Out)) {
    std::fprintf(stderr,
                 "error: unknown --solver-backend '%s' (expected %s)\n",
                 Opts.SolverBackend.c_str(), solver::SolverBackendChoices);
    return false;
  }
  return true;
}

/// Renders pipeline progress to stderr: phases and parsed projects through
/// the Session's observer, every 50th solver iteration through
/// SolveOptions::OnIteration. The Session serializes observer callbacks,
/// so plain fprintf is safe even with a parallel frontend. Stage wall
/// times are the spans --metrics prints.
class CliProgress : public infer::ProgressObserver {
public:
  /// Reports \p S's progress from now on; \p S must not outlive this.
  void attach(infer::Session &S) {
    S.setObserver(this);
    S.options().Solve.OnIteration = [](int Iteration, double Objective) {
      if (Iteration % 50 == 0)
        std::fprintf(stderr, "  iteration %d: objective %.6f\n", Iteration,
                     Objective);
    };
  }
  void onPhase(infer::Phase P) override {
    std::fprintf(stderr, "[%s]\n", infer::phaseName(P));
  }
  void onProjectGraphBuilt(size_t Done, size_t Total) override {
    // At most ~10 lines however large the corpus is.
    size_t Step = std::max<size_t>(1, Total / 10);
    if (Done == Total || Done % Step == 0)
      std::fprintf(stderr, "  parsed %zu/%zu project(s)\n", Done, Total);
  }
};

/// Wall seconds of the most recent "session/solve/iterate" span: the
/// optimizer loop alone, without the compile or the readback.
double lastIterateSeconds() {
  double Seconds = 0.0;
  for (const metrics::SpanRecord &S : metrics::Registry::global().spans())
    if (S.Path == "session/solve/iterate")
      Seconds = S.DurationSeconds;
  return Seconds;
}

/// Pre-validation integer targets; parseArgs() range-checks them into
/// CliOptions after the flag sweep.
struct RawCliOptions {
  unsigned long Iters = 600;
  unsigned long Cutoff = 5;
  unsigned long Top = 25;
  unsigned long Jobs = 0;
  unsigned long Rounds = 10;
  unsigned long QueriesPerRound = 8;
  bool NoDedup = false;
};

/// Registers the shared flag vocabulary on \p Parser. The usage screen is
/// generated from this same table, so help and behavior cannot drift.
void registerFlags(ArgParser &Parser, CliOptions &Opts,
                   RawCliOptions &Raw) {
  Parser
      .string("--seed", &Opts.SeedFile, "FILE",
              "seed specification (App. B format; default: built-in)")
      .string("--spec", &Opts.SpecFile, "FILE",
              "learned specification to analyze with")
      .string("--out", &Opts.OutFile, "FILE",
              "output file (default: stdout)")
      .decimal("--threshold", &Opts.Threshold, "T",
               "score threshold (default 0.1)")
      .unsignedInt("--iters", &Raw.Iters, "N",
                   "solver iterations (default 600)")
      .unsignedInt("--cutoff", &Raw.Cutoff, "N",
                   "representation frequency cutoff (default 5)")
      .unsignedInt("--top", &Raw.Top, "N",
                   "max reports to print (default 25)")
      .unsignedInt("--jobs", &Raw.Jobs, "N",
                   "worker threads for parsing/learning (default: all\n"
                   "hardware threads; results are identical for any N)")
      .flag("--strict", &Opts.Strict,
            "learn/explain: fail on the first broken project\n"
            "instead of quarantining it and continuing")
      .decimal("--deadline-s", &Opts.DeadlineSeconds, "S",
               "learn/explain: whole-run wall-clock budget in\n"
               "seconds; an expiring run ends with partial,\n"
               "clearly-flagged results (exit code 2)")
      .string("--cache-dir", &Opts.CacheDir, "DIR",
              "learn/explain: persistent propagation-graph\n"
              "cache; projects whose sources are unchanged\n"
              "skip parsing (identical learned specs)")
      .flag("--shard-cache", &Opts.ShardCache,
            "learn: also cache per-project constraint shards\n"
            "under DIR/shards (requires --cache-dir); re-learns\n"
            "re-extract only changed projects and warm-start\n"
            "from the existing --out spec (identical specs when\n"
            "warm start is off)")
      .flag("--no-warm-start", &Opts.NoWarmStart,
            "learn: start the solve cold even when --shard-cache\n"
            "could seed it from the existing --out spec")
      .flag("--cache-stats", &Opts.CacheStats,
            "print cache hit/miss/eviction counts to stderr")
      .flag("--progress", &Opts.Progress,
            "learn/explain: print phase progress to stderr")
      .flag("--metrics", &Opts.Metrics,
            "print pipeline metrics tables to stderr on exit")
      .string("--metrics-out", &Opts.MetricsOut, "F",
              "write the metrics snapshot as JSON to F")
      .flag("--solver-stats", &Opts.SolverStats,
            "learn: print compiled-system statistics (rows\n"
            "before/after dedup, non-zeros, ms/iteration)")
      .string("--solver-backend", &Opts.SolverBackend, "B",
              "learn/explain: evaluator backend — compiled, the\n"
              "only one (default; SELDON_SIMD=off|avx2 caps its\n"
              "vector tier without changing the learned spec)")
      .flag("--active", &Opts.Active,
            "learn: run the active-learning loop — rank uncertain\n"
            "scores, query the --oracle file, pin the answers, and\n"
            "re-solve warm-started each round")
      .string("--oracle", &Opts.OracleFile, "FILE",
              "learn: replayable JSON answer file for --active\n"
              "({\"answers\":[{\"rep\":...,\"role\":...,\"truth\":...}]});\n"
              "pairs without an entry stay unpinned")
      .string("--oracle-out", &Opts.OracleOut, "FILE",
              "learn: write the active run's query transcript in\n"
              "the --oracle format (replays byte-identically)")
      .unsignedInt("--rounds", &Raw.Rounds, "N",
                   "learn: active query rounds after the passive\n"
                   "solve (default 10)")
      .unsignedInt("--queries-per-round", &Raw.QueriesPerRound, "N",
                   "learn: oracle queries proposed per round\n"
                   "(default 8)")
      .string("--feedback", &Opts.FeedbackFile, "FILE",
              "learn: accept/reject verdict file\n"
              "({\"accept\":[{\"rep\":...,\"role\":...}],\"reject\":[...]})\n"
              "reweighting the constraint system before the solve")
      .flag("--no-dedup", &Raw.NoDedup,
            "keep duplicate (source, sink) API pairs")
      .flag("--json", &Opts.Json,
            "analyze/explain: emit machine-readable JSON")
      .flag("--dot", &Opts.Dot, "graph: emit Graphviz DOT")
      .string("--rep", &Opts.ExplainRep, "R",
              "explain: the representation to explain")
      .string("--role", &Opts.ExplainRole, "ROLE",
              "explain: source|sanitizer|sink (default source)");
}

void usage() {
  CliOptions Opts;
  RawCliOptions Raw;
  ArgParser Parser;
  registerFlags(Parser, Opts, Raw);
  std::fprintf(
      stderr,
      "usage: seldon <command> [options] <paths...>\n"
      "\n"
      "commands:\n"
      "  learn     learn a taint specification from Python repositories\n"
      "  analyze   report unsanitized source-to-sink flows\n"
      "  graph     print a file's propagation graph\n"
      "  explain   show the constraints behind one learned score\n"
      "  diff      compare two learned specification files\n"
      "  stats     propagation-graph statistics for repositories\n"
      "  seed      print the built-in seed specification\n"
      "\n"
      "options:\n%s",
      Parser.usage().c_str());
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  RawCliOptions Raw;
  ArgParser Parser;
  registerFlags(Parser, Opts, Raw);
  if (!Parser.parse(Argc, Argv, 2, &Opts.Paths))
    return false;

  if (Raw.Iters == 0 || Raw.Iters > 10'000'000) {
    std::fprintf(stderr,
                 "error: --iters must be in [1, 10000000], got %lu\n",
                 Raw.Iters);
    return false;
  }
  Opts.Iterations = static_cast<int>(Raw.Iters);
  Opts.RepCutoff = static_cast<size_t>(Raw.Cutoff);
  Opts.Top = static_cast<size_t>(Raw.Top);
  if (Opts.DeadlineSeconds < 0.0) {
    std::fprintf(stderr,
                 "error: --deadline-s must be non-negative, got %g\n",
                 Opts.DeadlineSeconds);
    return false;
  }
  // 0 means "all hardware threads"; anything above a generous
  // oversubscription cap is almost certainly a typo (or an unchecked
  // negative) and would only thrash, so clamp it loudly.
  unsigned long Cap = 8ul * ThreadPool::hardwareConcurrency();
  if (Raw.Jobs > Cap) {
    std::fprintf(stderr,
                 "warning: --jobs %lu exceeds %lu (8x hardware "
                 "threads); clamping to %lu\n",
                 Raw.Jobs, Cap, Cap);
    Raw.Jobs = Cap;
  }
  Opts.Jobs = static_cast<unsigned>(Raw.Jobs);
  Opts.Dedup = !Raw.NoDedup;
  if (Opts.ShardCache && Opts.CacheDir.empty()) {
    std::fprintf(stderr, "error: --shard-cache requires --cache-dir\n");
    return false;
  }
  if (Raw.Rounds == 0 || Raw.Rounds > 1'000'000) {
    std::fprintf(stderr, "error: --rounds must be in [1, 1000000], got %lu\n",
                 Raw.Rounds);
    return false;
  }
  Opts.Rounds = static_cast<int>(Raw.Rounds);
  if (Raw.QueriesPerRound == 0) {
    std::fprintf(stderr, "error: --queries-per-round must be positive\n");
    return false;
  }
  Opts.QueriesPerRound = static_cast<size_t>(Raw.QueriesPerRound);
  if (Opts.Active && Opts.OracleFile.empty()) {
    std::fprintf(stderr, "error: --active requires --oracle FILE\n");
    return false;
  }
  if (!Opts.OracleFile.empty() && !Opts.Active) {
    std::fprintf(stderr, "error: --oracle requires --active\n");
    return false;
  }
  return true;
}

bool writeOutput(const CliOptions &Opts, const std::string &Content) {
  if (Opts.OutFile.empty()) {
    std::fputs(Content.c_str(), stdout);
    return true;
  }
  io::IOResult<size_t> Written = io::writeFile(Opts.OutFile, Content);
  if (!Written) {
    std::fprintf(stderr, "error: %s\n", Written.Error.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", Opts.OutFile.c_str());
  return true;
}

spec::SeedSpec loadSeed(const CliOptions &Opts, bool &Ok) {
  Ok = true;
  if (Opts.SeedFile.empty())
    return spec::SeedSpec::parse(spec::paperSeedSpecText());
  spec::IOResult<spec::SeedSpec> Seed = spec::loadSeedSpec(Opts.SeedFile);
  for (const std::string &W : Seed.Warnings)
    std::fprintf(stderr, "seed: %s\n", W.c_str());
  if (!Seed) {
    std::fprintf(stderr, "error: %s\n", Seed.Error.c_str());
    Ok = false;
    return spec::SeedSpec();
  }
  return std::move(Seed.Value);
}

std::vector<pysem::Project> loadCorpus(const CliOptions &Opts, bool &Ok) {
  Ok = true;
  std::vector<pysem::Project> Corpus;
  std::vector<std::vector<std::string>> Errors;
  std::vector<std::optional<pysem::Project>> Loaded =
      pysem::loadProjectsFromDirs(Opts.Paths, pysem::LoadOptions(),
                                  Opts.Jobs, &Errors);
  for (size_t I = 0; I < Loaded.size(); ++I) {
    for (const std::string &E : Errors[I])
      std::fprintf(stderr, "warning: %s\n", E.c_str());
    if (!Loaded[I]) {
      std::fprintf(stderr, "error: %s is not a directory\n",
                   Opts.Paths[I].c_str());
      Ok = false;
      return Corpus;
    }
    std::fprintf(stderr, "loaded %s: %zu Python files\n",
                 Opts.Paths[I].c_str(), Loaded[I]->modules().size());
    Corpus.push_back(std::move(*Loaded[I]));
  }
  return Corpus;
}

/// Reports what a graph build parsed. Loading only reads files; the build
/// parses each one whose project graph is not served from the cache.
void reportParse(uint64_t Files, uint64_t Diagnostics) {
  std::fprintf(stderr, "parsed %llu Python files (%llu parse diagnostics)\n",
               static_cast<unsigned long long>(Files),
               static_cast<unsigned long long>(Diagnostics));
}

/// Builds the session's graph (parsing the cache misses) and reports the
/// parse.
void buildSessionGraph(infer::Session &Session) {
  Session.buildGraph();
  reportParse(Session.incrStats().FilesParsed,
              Session.incrStats().ParseDiagnostics);
}

/// Options of a session that only builds the corpus graph (analyze,
/// stats): --jobs workers, and Strict, so a project whose build throws
/// fails the command instead of being quarantined.
infer::PipelineOptions graphOnlyOptions(const CliOptions &Opts) {
  infer::PipelineOptions PipelineOpts;
  PipelineOpts.Jobs = Opts.Jobs;
  PipelineOpts.Strict = true;
  return PipelineOpts;
}

/// Enables the graph cache on \p Session when --cache-dir was given.
/// Returns false (after printing the reason) when the directory is
/// unusable — a misspelled --cache-dir should be a CLI error, not a
/// silently uncached run.
bool setupCache(infer::Session &Session, const CliOptions &Opts) {
  if (Opts.CacheDir.empty())
    return true;
  Session.enableCache(Opts.CacheDir);
  if (!Session.graphCache()->valid()) {
    std::fprintf(stderr, "error: %s\n",
                 Session.graphCache()->error().c_str());
    return false;
  }
  if (Opts.ShardCache) {
    Session.enableShardCache(Opts.CacheDir + "/shards");
    if (!Session.shardCache()->valid()) {
      std::fprintf(stderr, "error: %s\n",
                   Session.shardCache()->error().c_str());
      return false;
    }
  }
  return true;
}

/// Prints the run's cache counters (and any eviction diagnostics) when
/// --cache-stats was given.
void printCacheStats(const infer::PipelineResult &R,
                     const CliOptions &Opts) {
  if (!Opts.CacheStats)
    return;
  if (!R.UsedCache) {
    std::fprintf(stderr, "cache: disabled (no --cache-dir)\n");
    return;
  }
  const cache::CacheStats &S = R.Cache;
  std::fprintf(stderr,
               "cache: %llu hit(s), %llu miss(es), %llu evicted, "
               "%llu stored, %llu bytes read, %llu bytes written\n",
               static_cast<unsigned long long>(S.Hits),
               static_cast<unsigned long long>(S.Misses),
               static_cast<unsigned long long>(S.Evictions),
               static_cast<unsigned long long>(S.Stores),
               static_cast<unsigned long long>(S.BytesRead),
               static_cast<unsigned long long>(S.BytesWritten));
  for (const std::string &E : S.Errors)
    std::fprintf(stderr, "cache: %s\n", E.c_str());
  if (!R.UsedShardCache)
    return;
  const cache::CacheStats &Sh = R.ShardCacheStats;
  std::fprintf(stderr,
               "shards: %llu replayed, %llu re-extracted, %llu evicted, "
               "%llu stored, %llu bytes read, %llu bytes written\n",
               static_cast<unsigned long long>(R.Incr.ShardsHit),
               static_cast<unsigned long long>(R.Incr.ShardsRebuilt),
               static_cast<unsigned long long>(Sh.Evictions),
               static_cast<unsigned long long>(Sh.Stores),
               static_cast<unsigned long long>(Sh.BytesRead),
               static_cast<unsigned long long>(Sh.BytesWritten));
  for (const std::string &E : Sh.Errors)
    std::fprintf(stderr, "shards: %s\n", E.c_str());
}

/// Prints the run-health summary to stderr and returns the exit code the
/// result's status implies for an otherwise-successful run: 0 clean, 2
/// degraded. A clean run prints nothing.
int reportHealth(const infer::PipelineResult &R) {
  const infer::RunHealth &H = R.Health;
  if (R.status() == infer::RunStatus::Clean) {
    // Incidents without degradation (transparent cache failures) are still
    // worth a line each.
    for (const std::string &I : H.CacheIncidents)
      std::fprintf(stderr, "health: %s\n", I.c_str());
    return 0;
  }
  std::fprintf(stderr, "health: %s\n", infer::runStatusName(R.status()));
  if (!H.Quarantined.empty()) {
    std::fprintf(stderr, "health: quarantined %zu project(s):\n",
                 H.Quarantined.size());
    TablePrinter Table({"index", "project", "reason"});
    for (const infer::QuarantinedProject &Q : H.Quarantined)
      Table.addRow({std::to_string(Q.Index), Q.Name, Q.Reason});
    std::ostringstream OS;
    Table.print(OS);
    std::fputs(OS.str().c_str(), stderr);
  }
  for (const std::string &I : H.CacheIncidents)
    std::fprintf(stderr, "health: %s\n", I.c_str());
  const solver::SolveResult &S = R.Solve;
  if (S.NonFiniteSteps > 0 || S.Recoveries > 0)
    std::fprintf(stderr,
                 "health: solver hit %d non-finite step(s), recovered %d "
                 "time(s)%s\n",
                 S.NonFiniteSteps, S.Recoveries,
                 S.FellBack ? ", fell back to best finite iterate" : "");
  // One deadline line: an earlier stage's expiry takes precedence over
  // the solve it left partial.
  if (H.DeadlineExpired || S.DeadlineExpired)
    std::fprintf(stderr,
                 "health: run deadline expired during the %s stage; "
                 "results are partial\n",
                 H.DeadlineExpired ? H.DeadlineStage.c_str()
                                   : infer::phaseName(infer::Phase::Solve));
  return 2;
}

int cmdLearn(const CliOptions &Opts) {
  bool Ok = false;
  spec::SeedSpec Seed = loadSeed(Opts, Ok);
  if (!Ok)
    return 1;
  std::vector<pysem::Project> Corpus = loadCorpus(Opts, Ok);
  if (!Ok || Corpus.empty()) {
    std::fprintf(stderr, "error: no input repositories\n");
    return 1;
  }

  infer::PipelineOptions PipelineOpts;
  PipelineOpts.Solve.MaxIterations = Opts.Iterations;
  PipelineOpts.Gen.RepCutoff = Opts.RepCutoff;
  PipelineOpts.Jobs = Opts.Jobs;
  if (!resolveBackend(Opts, PipelineOpts.Solve.Backend))
    return 1;
  PipelineOpts.Strict = Opts.Strict;
  PipelineOpts.DeadlineSeconds = Opts.DeadlineSeconds;

  // A --feedback verdict file reweights the constraint system on every
  // solve; the set is borrowed by the options, so it lives here.
  constraints::FeedbackSet Verdicts;
  if (!Opts.FeedbackFile.empty()) {
    std::string Error;
    size_t Accepted = 0, Rejected = 0;
    if (!service::loadFeedbackFile(Opts.FeedbackFile, Verdicts, Error,
                                   &Accepted, &Rejected)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "feedback: %zu accepted, %zu rejected from %s\n",
                 Accepted, Rejected, Opts.FeedbackFile.c_str());
    PipelineOpts.Feedback = &Verdicts;
  }

  infer::Session Session(PipelineOpts);
  CliProgress Progress;
  if (Opts.Progress)
    Progress.attach(Session);
  if (!setupCache(Session, Opts))
    return 1;

  // Incremental re-learns warm-start from the spec the previous run wrote
  // to --out (kept alive here; options().WarmStart borrows). The cold
  // start stays the default everywhere else so differential runs see the
  // exact reference trajectory.
  spec::LearnedSpec PreviousSpec;
  if (Opts.ShardCache && !Opts.NoWarmStart && !Opts.OutFile.empty() &&
      std::ifstream(Opts.OutFile).good()) {
    spec::IOResult<spec::LearnedSpec> Previous =
        spec::loadLearnedSpec(Opts.OutFile);
    if (Previous) {
      PreviousSpec = std::move(Previous.Value);
      Session.options().WarmStart = &PreviousSpec;
      std::fprintf(stderr,
                   "warm start: seeding solve from %s (disable with "
                   "--no-warm-start)\n",
                   Opts.OutFile.c_str());
    } else {
      std::fprintf(stderr, "warm start: skipped (%s)\n",
                   Previous.Error.c_str());
    }
  }

  Session.addProjects(Corpus);
  buildSessionGraph(Session);
  infer::PipelineResult R;
  // The summary line times the learning step alone: constraint generation
  // and the solve, or the whole active loop.
  double LearnSeconds = 0.0;
  if (Opts.Active) {
    active::FileOracle Oracle;
    std::string Error;
    if (!active::FileOracle::load(Opts.OracleFile, Oracle, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    active::ActiveOptions AO;
    AO.MaxRounds = Opts.Rounds;
    AO.QueriesPerRound = Opts.QueriesPerRound;
    AO.Threshold = Opts.Threshold;
    Timer LearnClock;
    active::ActiveResult AR =
        active::runActiveLoop(Session, Seed, Oracle, AO);
    LearnSeconds = LearnClock.seconds();
    std::fprintf(stderr,
                 "active: %zu round(s), %zu of %zu candidate(s) queried, "
                 "%zu pinned, %s\n",
                 AR.Rounds.size(), AR.TotalQueries, AR.Candidates,
                 AR.TotalPinned,
                 AR.Converged ? "converged" : "budget exhausted");
    if (!Opts.OracleOut.empty()) {
      io::IOResult<size_t> Written = io::writeFile(
          Opts.OracleOut, active::writeOracleFile(AR.Transcript));
      if (!Written) {
        std::fprintf(stderr, "error: %s\n", Written.Error.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote transcript to %s (%zu exchange(s))\n",
                   Opts.OracleOut.c_str(), AR.Transcript.size());
    }
    R = std::move(AR.Final);
  } else {
    Timer LearnClock;
    Session.generateConstraints(Seed);
    R = Session.solve();
    LearnSeconds = LearnClock.seconds();
  }
  printCacheStats(R, Opts);

  std::fprintf(stderr,
               "analyzed %zu files over %u job(s): %zu candidates, "
               "%zu constraints, %s in %.2fs (%d iterations)\n",
               R.Graph->files().size(), R.JobsUsed, R.System.NumCandidates,
               R.System.Constraints.size(),
               Opts.Active ? "ran the active loop" : "generated and solved",
               LearnSeconds, R.Solve.Iterations);
  if (R.UsedFeedback)
    std::fprintf(stderr,
                 "feedback: %zu matched, %zu unmatched, %zu evidence "
                 "row(s), %zu propagated\n",
                 R.Feedback.Matched, R.Feedback.Unmatched,
                 R.Feedback.EvidenceRows, R.Feedback.PropagatedRows);
  if (Opts.SolverStats) {
    const solver::CompileStats &S = R.SolverStats;
    std::fprintf(stderr,
                 "solver: %s backend (%s tier, %s-width operands), %zu rows "
                 "-> %zu after dedup (%.2fx), %zu non-zeros, max "
                 "multiplicity %zu\n",
                 solver::solverBackendName(R.Backend),
                 solver::kernelTierName(
                     R.SimdActive ? solver::CompiledObjective::hostTier()
                                  : solver::KernelTier::Scalar),
                 R.NarrowOperands ? "half" : "full",
                 S.RowsBefore, S.RowsAfter, S.dedupRatio(), S.NonZeros,
                 S.MaxMultiplicity);
    std::fprintf(stderr, "solver: %.3f ms/iteration over %d iteration(s)\n",
                 R.Solve.Iterations > 0
                     ? 1000.0 * lastIterateSeconds() / R.Solve.Iterations
                     : 0.0,
                 R.Solve.Iterations);
  }

  // The spec is written even on a degraded run — it is valid for the
  // surviving corpus — but the exit code (2) flags the degradation.
  int HealthRc = reportHealth(R);
  if (Opts.OutFile.empty())
    return writeOutput(Opts,
                       spec::writeLearnedSpec(R.Learned, Opts.Threshold))
               ? HealthRc
               : 1;
  spec::IOResult<size_t> Saved =
      spec::saveLearnedSpec(R.Learned, Opts.OutFile, Opts.Threshold);
  if (!Saved) {
    std::fprintf(stderr, "error: %s\n", Saved.Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", Opts.OutFile.c_str(),
               Saved.Value);
  return HealthRc;
}

int cmdAnalyze(const CliOptions &Opts) {
  bool Ok = false;
  spec::SeedSpec Seed = loadSeed(Opts, Ok);
  if (!Ok)
    return 1;
  std::vector<pysem::Project> Corpus = loadCorpus(Opts, Ok);
  if (!Ok || Corpus.empty()) {
    std::fprintf(stderr, "error: no input repositories\n");
    return 1;
  }

  spec::LearnedSpec Learned;
  bool HaveLearned = false;
  if (!Opts.SpecFile.empty()) {
    spec::IOResult<spec::LearnedSpec> Loaded =
        spec::loadLearnedSpec(Opts.SpecFile);
    for (const std::string &W : Loaded.Warnings)
      std::fprintf(stderr, "spec: %s\n", W.c_str());
    if (!Loaded) {
      std::fprintf(stderr, "error: %s\n", Loaded.Error.c_str());
      return 1;
    }
    Learned = std::move(Loaded.Value);
    HaveLearned = true;
  }

  infer::Session Session(graphOnlyOptions(Opts));
  Session.addProjects(Corpus);
  buildSessionGraph(Session);
  const propgraph::PropagationGraph &Graph = Session.graph();

  taint::RoleResolver Roles(&Seed.Spec, HaveLearned ? &Learned : nullptr,
                            Opts.Threshold);
  taint::TaintAnalyzer Analyzer(Graph);
  std::vector<taint::Violation> Reports = Analyzer.analyze(Roles);
  size_t Raw = Reports.size();
  if (Opts.Dedup)
    Reports = taint::dedupByRepPair(Graph, Reports);
  {
    metrics::Registry &Reg = metrics::Registry::global();
    if (Reg.enabled()) {
      Reg.gauge("taint.reports_raw").set(static_cast<double>(Raw));
      Reg.gauge("taint.reports_final")
          .set(static_cast<double>(Reports.size()));
    }
  }
  std::vector<double> Confidence = taint::rankViolations(
      Graph, Reports, &Seed.Spec, HaveLearned ? &Learned : nullptr,
      Opts.Threshold);

  if (Opts.Json)
    return writeOutput(Opts,
                       taint::reportsToJson(Graph, Reports, &Confidence) +
                           "\n")
               ? 0
               : 1;

  // Quote the source line of each path step, re-reading files on demand.
  std::unordered_map<std::string, std::vector<std::string>> FileLines;
  auto QuoteLine = [&](uint32_t FileIdx, uint32_t Line) -> std::string {
    const std::string &File = Graph.files()[FileIdx];
    auto It = FileLines.find(File);
    if (It == FileLines.end()) {
      std::vector<std::string> Lines;
      // Module paths are relative to their repository root; try each.
      for (const std::string &Dir : Opts.Paths) {
        if (io::IOResult<std::string> Text = io::readFile(Dir + "/" + File)) {
          Lines = splitString(Text.Value, '\n');
          break;
        }
      }
      It = FileLines.emplace(File, std::move(Lines)).first;
    }
    if (Line == 0 || Line > It->second.size())
      return std::string();
    return std::string(trim(It->second[Line - 1]));
  };

  std::string Out =
      formatString("%zu raw report(s), %zu after deduplication\n\n", Raw,
                   Reports.size());
  for (size_t I = 0; I < Reports.size() && I < Opts.Top; ++I) {
    Out += formatString("[%zu] confidence %.2f\n", I + 1, Confidence[I]);
    const taint::Violation &V = Reports[I];
    const propgraph::Event &Src = Graph.event(V.Source);
    const propgraph::Event &Snk = Graph.event(V.Sink);
    Out += formatString("unsanitized flow in %s:\n",
                        Graph.files()[V.FileIdx].c_str());
    Out += formatString("  source %s (line %u)\n", Src.primaryRep().c_str(),
                        Src.Loc.Line);
    Out += formatString("  sink   %s (line %u)\n", Snk.primaryRep().c_str(),
                        Snk.Loc.Line);
    Out += "  path:\n";
    for (propgraph::EventId Id : V.Path) {
      const propgraph::Event &E = Graph.event(Id);
      Out += formatString("    %s (line %u)\n", E.primaryRep().c_str(),
                          E.Loc.Line);
      std::string Quoted = QuoteLine(E.FileIdx, E.Loc.Line);
      if (!Quoted.empty())
        Out += formatString("        | %s\n", Quoted.c_str());
    }
    Out += '\n';
  }
  if (Reports.size() > Opts.Top)
    Out += formatString("... %zu more (raise --top to see them)\n",
                        Reports.size() - Opts.Top);
  return writeOutput(Opts, Out) ? 0 : 1;
}

int cmdExplain(const CliOptions &Opts) {
  if (Opts.ExplainRep.empty()) {
    std::fprintf(stderr, "error: explain needs --rep <representation>\n");
    return 1;
  }
  propgraph::Role Role;
  if (!service::roleFromName(Opts.ExplainRole, Role)) {
    std::fprintf(stderr, "error: --role must be source|sanitizer|sink\n");
    return 1;
  }

  bool Ok = false;
  spec::SeedSpec Seed = loadSeed(Opts, Ok);
  if (!Ok)
    return 1;
  std::vector<pysem::Project> Corpus = loadCorpus(Opts, Ok);
  if (!Ok || Corpus.empty()) {
    std::fprintf(stderr, "error: no input repositories\n");
    return 1;
  }

  infer::PipelineOptions PipelineOpts;
  PipelineOpts.Solve.MaxIterations = Opts.Iterations;
  PipelineOpts.Gen.RepCutoff = Opts.RepCutoff;
  PipelineOpts.Jobs = Opts.Jobs;
  if (!resolveBackend(Opts, PipelineOpts.Solve.Backend))
    return 1;
  PipelineOpts.Strict = Opts.Strict;
  PipelineOpts.DeadlineSeconds = Opts.DeadlineSeconds;

  infer::Session Session(PipelineOpts);
  CliProgress Progress;
  if (Opts.Progress)
    Progress.attach(Session);
  if (!setupCache(Session, Opts))
    return 1;
  Session.addProjects(Corpus);
  buildSessionGraph(Session);
  Session.generateConstraints(Seed);
  infer::PipelineResult R = Session.solve();
  printCacheStats(R, Opts);
  int HealthRc = reportHealth(R);

  // The same QueryResult + renderers serve the `seldond` query op, so the
  // CLI and the daemon cannot drift — a warm daemon answer is
  // byte-identical to this cold run.
  service::QueryResult Q = service::queryRep(R.System, R.Reps,
                                             Opts.ExplainRep, Role,
                                             R.Solve.X);
  if (Opts.Json)
    return writeOutput(Opts, service::renderQueryJson(Q) + "\n")
               ? HealthRc
               : 1;
  if (!Q.Found) {
    std::fprintf(stderr,
                 "'%s' has no %s variable (blacklisted, below the "
                 "frequency cutoff, or not a candidate)\n",
                 Opts.ExplainRep.c_str(), Opts.ExplainRole.c_str());
    return 1;
  }
  return writeOutput(Opts, service::renderQueryText(Q)) ? HealthRc : 1;
}

int cmdStats(const CliOptions &Opts) {
  bool Ok = false;
  std::vector<pysem::Project> Corpus = loadCorpus(Opts, Ok);
  if (!Ok || Corpus.empty()) {
    std::fprintf(stderr, "error: no input repositories\n");
    return 1;
  }
  infer::Session Session(graphOnlyOptions(Opts));
  Session.addProjects(Corpus);
  buildSessionGraph(Session);
  return writeOutput(Opts, propgraph::renderGraphStats(
                               propgraph::computeGraphStats(Session.graph())))
             ? 0
             : 1;
}

int cmdDiff(const CliOptions &Opts) {
  if (Opts.Paths.size() != 2) {
    std::fprintf(stderr, "error: diff expects OLD.spec NEW.spec\n");
    return 1;
  }
  spec::LearnedSpec Specs[2];
  for (int I = 0; I < 2; ++I) {
    spec::IOResult<spec::LearnedSpec> Loaded =
        spec::loadLearnedSpec(Opts.Paths[I]);
    for (const std::string &W : Loaded.Warnings)
      std::fprintf(stderr, "%s: %s\n", Opts.Paths[I].c_str(), W.c_str());
    if (!Loaded) {
      std::fprintf(stderr, "error: %s\n", Loaded.Error.c_str());
      return 1;
    }
    Specs[I] = std::move(Loaded.Value);
  }
  spec::SpecDiff Diff =
      spec::diffLearnedSpecs(Specs[0], Specs[1], Opts.Threshold);
  std::string Out = spec::renderSpecDiff(Diff);
  if (Out.empty()) {
    std::fprintf(stderr, "specifications agree at threshold %.2f\n",
                 Opts.Threshold);
    return 0;
  }
  if (!writeOutput(Opts, Out))
    return 1;
  // Non-zero exit on drift, so CI can gate on specification changes.
  return 2;
}

int cmdGraph(const CliOptions &Opts) {
  if (Opts.Paths.size() != 1) {
    std::fprintf(stderr, "error: graph expects exactly one .py file\n");
    return 1;
  }
  io::IOResult<std::string> Source = io::readFile(Opts.Paths[0]);
  if (!Source) {
    std::fprintf(stderr, "error: %s\n", Source.Error.c_str());
    return 1;
  }
  pysem::Project Proj("cli");
  const pysem::ModuleInfo &M = Proj.addModule(Opts.Paths[0], Source.Value);
  std::vector<pyast::ParseError> Diagnostics;
  propgraph::PropagationGraph Graph = propgraph::buildModuleGraph(
      Proj, M, propgraph::BuildOptions(), &Diagnostics);
  for (const pyast::ParseError &E : Diagnostics)
    std::fprintf(stderr, "%s:%u:%u: %s\n", Opts.Paths[0].c_str(), E.Line,
                 E.Col, E.Message.c_str());

  if (!Opts.Dot)
    return writeOutput(Opts, propgraph::toText(Graph)) ? 0 : 1;

  bool SeedOk = false;
  spec::SeedSpec Seed = loadSeed(Opts, SeedOk);
  propgraph::DotOptions DotOpts;
  if (SeedOk) {
    taint::RoleResolver Roles(&Seed.Spec, nullptr, Opts.Threshold);
    taint::TaintAnalyzer Analyzer(Graph);
    DotOpts.Roles = Analyzer.resolveRoles(Roles);
  }
  return writeOutput(Opts, propgraph::toDot(Graph, DotOpts)) ? 0 : 1;
}

/// Renders / writes the metrics snapshot after a command ran. Returns
/// false if --metrics-out could not be written.
bool emitMetrics(const CliOptions &Opts) {
  if (!Opts.Metrics && Opts.MetricsOut.empty())
    return true;
  metrics::Registry &Reg = metrics::Registry::global();
  if (Opts.Metrics)
    std::fputs(Reg.renderText().c_str(), stderr);
  if (!Opts.MetricsOut.empty()) {
    io::IOResult<size_t> Written = io::writeFile(Opts.MetricsOut, Reg.toJson());
    if (!Written) {
      std::fprintf(stderr, "error: cannot write metrics: %s\n",
                   Written.Error.c_str());
      return false;
    }
    std::fprintf(stderr, "wrote metrics to %s\n", Opts.MetricsOut.c_str());
  }
  return true;
}

int runCommand(const std::string &Command, const CliOptions &Opts) {
  if (Command == "learn")
    return cmdLearn(Opts);
  if (Command == "analyze")
    return cmdAnalyze(Opts);
  if (Command == "graph")
    return cmdGraph(Opts);
  if (Command == "explain")
    return cmdExplain(Opts);
  if (Command == "diff")
    return cmdDiff(Opts);
  if (Command == "stats")
    return cmdStats(Opts);
  if (Command == "seed") {
    std::fputs(spec::paperSeedSpecText(), stdout);
    return 0;
  }
  if (Command == "--help" || Command == "-h" || Command == "help") {
    usage();
    return 0;
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", Command.c_str());
  usage();
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    usage();
    return 1;
  }
  std::string Command = Argv[1];
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  // SELDON_FAULT arms the deterministic fault-injection points (testing
  // the degraded paths end to end); a malformed spec is a CLI error.
  std::string FaultError;
  if (!fault::configureFromEnv(&FaultError)) {
    std::fprintf(stderr, "error: SELDON_FAULT: %s\n", FaultError.c_str());
    return 1;
  }

  // Enable before any pipeline work so corpus loading (per-file parse
  // timings) is captured too. --solver-stats reads the iterate span.
  // Metrics are write-only: enabling them never changes any learned score
  // or report.
  if (Opts.Metrics || !Opts.MetricsOut.empty() || Opts.SolverStats)
    metrics::Registry::global().setEnabled(true);

  // Top-level failure boundary: anything the pipeline could not recover
  // from (strict mode, an expired constraint-generation deadline, I/O)
  // surfaces as a diagnostic and a failed exit code, never a crash. The
  // metrics snapshot is still emitted so a failed run can be post-mortemed.
  int Rc;
  try {
    Rc = runCommand(Command, Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    Rc = 1;
  } catch (...) {
    std::fprintf(stderr, "error: unknown exception\n");
    Rc = 1;
  }
  if (!emitMetrics(Opts) && Rc == 0)
    Rc = 1;
  return Rc;
}
