//===- tests/shard_pipeline_test.cpp - Incremental learning, differential -===//
//
// The incremental path's headline guarantee, tested differentially: a run
// that composes the constraint system from per-project shards (cold, warm,
// and mixed hit/miss) must produce a learned specification byte-identical
// to direct generation, serially and in parallel. Touching one project must
// rebuild exactly one shard; changing a generation knob or the seed must
// miss everywhere; warm-starting the solve must converge to the same
// learned roles; an unusable shard directory must degrade to correct
// all-rebuild operation; and a deadline expiring mid-replay must abort
// composition without a partial system.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "constraints/ConstraintShard.h"
#include "infer/Pipeline.h"
#include "spec/SpecIO.h"
#include "support/Deadline.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

using namespace seldon;

namespace fs = std::filesystem;

namespace {

infer::PipelineOptions testOptions(unsigned Jobs) {
  infer::PipelineOptions Opts;
  Opts.Solve.MaxIterations = 200;
  Opts.Jobs = Jobs;
  return Opts;
}

infer::PipelineResult runOnce(const corpus::Corpus &Data,
                              infer::PipelineOptions Opts,
                              const std::string &ShardDir = "") {
  infer::Session S(std::move(Opts));
  if (!ShardDir.empty())
    S.enableShardCache(ShardDir);
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  return S.solve();
}

std::string specOf(const infer::PipelineResult &R) {
  return spec::writeLearnedSpec(R.Learned);
}

/// \p Actual matches \p Expected variable by variable, constraint by
/// constraint, term by term.
void expectSameSystem(const constraints::ConstraintSystem &Expected,
                      const constraints::ConstraintSystem &Actual) {
  ASSERT_EQ(Actual.Vars.numVars(), Expected.Vars.numVars());
  for (uint32_t V = 0; V < Expected.Vars.numVars(); ++V) {
    EXPECT_EQ(Actual.Vars.repOf(V), Expected.Vars.repOf(V));
    EXPECT_EQ(Actual.Vars.roleOf(V), Expected.Vars.roleOf(V));
  }
  ASSERT_EQ(Actual.Constraints.size(), Expected.Constraints.size());
  for (size_t I = 0; I < Expected.Constraints.size(); ++I) {
    const solver::LinearConstraint &A = Expected.Constraints[I];
    const solver::LinearConstraint &B = Actual.Constraints[I];
    ASSERT_EQ(A.Lhs.size(), B.Lhs.size()) << "constraint " << I;
    ASSERT_EQ(A.Rhs.size(), B.Rhs.size()) << "constraint " << I;
    for (size_t T = 0; T < A.Lhs.size(); ++T) {
      EXPECT_EQ(A.Lhs[T].Var, B.Lhs[T].Var);
      EXPECT_EQ(A.Lhs[T].Coef, B.Lhs[T].Coef);
    }
    for (size_t T = 0; T < A.Rhs.size(); ++T) {
      EXPECT_EQ(A.Rhs[T].Var, B.Rhs[T].Var);
      EXPECT_EQ(A.Rhs[T].Coef, B.Rhs[T].Coef);
    }
  }
  EXPECT_EQ(Actual.Pinned, Expected.Pinned);
  EXPECT_EQ(Actual.NumCandidates, Expected.NumCandidates);
  EXPECT_EQ(Actual.AvgBackoffOptions, Expected.AvgBackoffOptions);
}

class ShardPipelineTest : public ::testing::TestWithParam<unsigned> {};

/// Cold (all shards extracted + stored), warm (all replayed), and mixed
/// runs all match the direct-generation reference bit for bit, at the
/// default pair cap and at caps of 1 and 2.
TEST_P(ShardPipelineTest, ComposedSystemIsByteIdenticalToDirect) {
  const unsigned Jobs = GetParam();
  corpus::Corpus Data = testutil::makeCorpus(6061, /*NumProjects=*/6);
  const size_t N = Data.Projects.size();
  infer::PipelineResult Direct = runOnce(Data, testOptions(Jobs));
  std::string Reference = specOf(Direct);

  std::string Dir = testutil::makeScratchDir("shard-diff");
  infer::PipelineResult Cold = runOnce(Data, testOptions(Jobs), Dir);
  EXPECT_TRUE(Cold.UsedShardCache);
  EXPECT_EQ(Cold.Incr.ShardsHit, 0u);
  EXPECT_EQ(Cold.Incr.ShardsRebuilt, N);
  EXPECT_EQ(Cold.Incr.ShardsStored, N);
  EXPECT_EQ(Cold.ShardCacheStats.Misses, N);
  EXPECT_GT(Cold.ShardCacheStats.BytesWritten, 0u);
  EXPECT_EQ(specOf(Cold), Reference);

  infer::PipelineResult Warm = runOnce(Data, testOptions(Jobs), Dir);
  EXPECT_EQ(Warm.Incr.ShardsHit, N);
  EXPECT_EQ(Warm.Incr.ShardsRebuilt, 0u);
  EXPECT_GT(Warm.ShardCacheStats.BytesRead, 0u);
  EXPECT_EQ(specOf(Warm), Reference);

  // Not just the rendered spec: the composed system itself matches the
  // directly generated one, constraint by constraint, term by term.
  expectSameSystem(Direct.System, Warm.System);

  // Mixed: delete half the shard entries; exactly those projects
  // re-extract, the rest replay.
  size_t Deleted = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (Deleted * 2 >= N)
      break;
    fs::remove(E.path());
    ++Deleted;
  }
  ASSERT_GT(Deleted, 0u);
  infer::PipelineResult Mixed = runOnce(Data, testOptions(Jobs), Dir);
  EXPECT_EQ(Mixed.Incr.ShardsHit, N - Deleted);
  EXPECT_EQ(Mixed.Incr.ShardsRebuilt, Deleted);
  EXPECT_EQ(specOf(Mixed), Reference);
  fs::remove_all(Dir);

  // Pair caps that bite: the cap counts surviving pairs only, so the
  // composed system still matches direct generation, cold and warm.
  for (size_t MaxPairs : {size_t(1), size_t(2)}) {
    SCOPED_TRACE("cap " + std::to_string(MaxPairs));
    infer::PipelineOptions Capped = testOptions(Jobs);
    Capped.Gen.MaxPairsPerAnchor = MaxPairs;
    infer::PipelineResult CappedDirect = runOnce(Data, Capped);
    EXPECT_LT(CappedDirect.System.Constraints.size(),
              Direct.System.Constraints.size());
    std::string CapDir = testutil::makeScratchDir("shard-diff-cap");
    infer::PipelineResult CappedCold = runOnce(Data, Capped, CapDir);
    infer::PipelineResult CappedWarm = runOnce(Data, Capped, CapDir);
    EXPECT_EQ(CappedWarm.Incr.ShardsHit, N);
    expectSameSystem(CappedDirect.System, CappedCold.System);
    expectSameSystem(CappedDirect.System, CappedWarm.System);
    EXPECT_EQ(specOf(CappedWarm), specOf(CappedDirect));
    fs::remove_all(CapDir);
  }
}

/// A warm composed run matches the serial warm composed run bit for bit —
/// determinism does not depend on which runs were cached.
TEST_P(ShardPipelineTest, WarmComposedRunMatchesSerial) {
  const unsigned Jobs = GetParam();
  corpus::Corpus Data = testutil::makeCorpus(7207, /*NumProjects=*/6);
  std::string Dir = testutil::makeScratchDir("shard-jobs");
  runOnce(Data, testOptions(Jobs), Dir); // populate

  infer::PipelineResult Serial = runOnce(Data, testOptions(1), Dir);
  infer::PipelineResult Parallel = runOnce(Data, testOptions(Jobs), Dir);
  EXPECT_EQ(Serial.Incr.ShardsHit, Data.Projects.size());
  EXPECT_EQ(Parallel.Incr.ShardsHit, Data.Projects.size());
  EXPECT_EQ(specOf(Serial), specOf(Parallel));
  ASSERT_EQ(Serial.Solve.X.size(), Parallel.Solve.X.size());
  for (size_t I = 0; I < Serial.Solve.X.size(); ++I)
    EXPECT_EQ(Serial.Solve.X[I], Parallel.Solve.X[I]) << "var " << I;
  fs::remove_all(Dir);
}

/// The shards replay in parallel into local blocks merged in corpus order:
/// with some shards replayed and some re-extracted, the composed system
/// equals the serial direct generation at every worker count.
TEST_P(ShardPipelineTest, MixedHitsAndMissesComposeTheDirectSystem) {
  const unsigned Jobs = GetParam();
  corpus::Corpus Data = testutil::makeCorpus(9191, /*NumProjects=*/7);
  infer::Session Direct(testOptions(1));
  Direct.addProjects(Data.Projects);
  Direct.generateConstraints(Data.Seed);

  std::string Dir = testutil::makeScratchDir("shard-mixed");
  auto Compose = [&](infer::Session &S) {
    S.enableShardCache(Dir);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
  };
  infer::Session Populate(testOptions(Jobs));
  Compose(Populate);
  // Drop every other entry: those projects re-extract, the rest replay.
  size_t Deleted = 0, Seen = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    if (Seen++ % 2 == 0 && fs::remove(E.path()))
      ++Deleted;
  ASSERT_GT(Deleted, 0u);

  infer::Session Mixed(testOptions(Jobs));
  Compose(Mixed);
  EXPECT_EQ(Mixed.incrStats().ShardsRebuilt, Deleted);
  EXPECT_EQ(Mixed.incrStats().ShardsHit, Data.Projects.size() - Deleted);
  expectSameSystem(Direct.system(), Mixed.system());
  fs::remove_all(Dir);
}

/// A deadline that expires while the shards replay aborts composition with
/// DeadlineError: composition is all-or-nothing, so no partial system
/// escapes.
TEST_P(ShardPipelineTest, DeadlineDuringReplayLeavesNoPartialSystem) {
  const unsigned Jobs = GetParam();
  corpus::Corpus Data = testutil::makeCorpus(8383, /*NumProjects=*/4);
  propgraph::PropagationGraph Graph = testutil::buildGlobalGraph(Data);
  propgraph::RepTable Reps;
  Reps.countOccurrences(Graph);
  std::vector<constraints::ConstraintShard> Shards;
  uint32_t Begin = 0;
  for (const pysem::Project &P : Data.Projects) {
    uint32_t End = Begin + static_cast<uint32_t>(P.modules().size());
    Shards.push_back(constraints::extractShard(Graph, Begin, End));
    Begin = End;
  }
  ThreadPool Pool(Jobs);
  ThreadPool *P = Jobs > 1 ? &Pool : nullptr;

  // Replaying the shards over and over makes the replay long next to the
  // scaffolding that precedes it; the deadline then expires at a quarter
  // of the fastest unbounded composition, mid-replay.
  std::vector<const constraints::ConstraintShard *> Replay;
  for (const constraints::ConstraintShard &S : Shards)
    Replay.push_back(&S);
  double Fastest = 0.0;
  while (Fastest < 0.05) {
    Replay.insert(Replay.end(), Replay.begin(), Replay.end());
    Fastest = 1e9;
    for (int Run = 0; Run < 2; ++Run) {
      Timer Clock;
      constraints::composeConstraints(Graph, Reps, Data.Seed, Replay,
                                      constraints::GenOptions(), P);
      Fastest = std::min(Fastest, Clock.seconds());
    }
  }

  Deadline StopAt;
  StopAt.arm(Fastest / 4);
  constraints::ConstraintSystem Sys;
  EXPECT_THROW(Sys = constraints::composeConstraints(
                   Graph, Reps, Data.Seed, Replay,
                   constraints::GenOptions(), P, &StopAt),
               DeadlineError);
  EXPECT_TRUE(Sys.Constraints.empty());
  EXPECT_EQ(Sys.Vars.numVars(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Jobs, ShardPipelineTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

/// Editing one project's source changes its graph key, hence its shard
/// key: exactly one shard re-extracts, and the result equals a fresh
/// uncached run over the edited corpus.
TEST(ShardStalenessTest, TouchedProjectRebuildsExactlyOneShard) {
  corpus::Corpus Data = testutil::makeCorpus(1818, /*NumProjects=*/5);
  std::string Dir = testutil::makeScratchDir("shard-stale");
  infer::PipelineResult Cold = runOnce(Data, testOptions(2), Dir);
  EXPECT_EQ(Cold.Incr.ShardsRebuilt, Data.Projects.size());

  Data.Projects.front().addModule(
      "app/extra.py", "import flask\n"
                      "def extra():\n"
                      "    v = flask.request.args.get('x')\n"
                      "    flask.render_template('t.html', value=v)\n");

  infer::PipelineResult Incr = runOnce(Data, testOptions(2), Dir);
  EXPECT_EQ(Incr.Incr.ShardsHit, Data.Projects.size() - 1);
  EXPECT_EQ(Incr.Incr.ShardsRebuilt, 1u);
  EXPECT_EQ(specOf(Incr), specOf(runOnce(Data, testOptions(2))));
  fs::remove_all(Dir);
}

/// The shard key covers the generation options and the seed: changing
/// either misses everywhere instead of replaying stale structure.
TEST(ShardKeyTest, GenOptionOrSeedChangeMissesEverywhere) {
  corpus::Corpus Data = testutil::makeCorpus(2727, /*NumProjects=*/4);
  std::string Dir = testutil::makeScratchDir("shard-key");
  runOnce(Data, testOptions(2), Dir); // populate

  infer::PipelineOptions Tweaked = testOptions(2);
  Tweaked.Gen.RepCutoff += 1;
  infer::PipelineResult R1 = runOnce(Data, Tweaked, Dir);
  EXPECT_EQ(R1.Incr.ShardsHit, 0u);
  EXPECT_EQ(R1.Incr.ShardsRebuilt, Data.Projects.size());

  Data.Seed.Spec.add("extra.fake()", spec::Role::Sink);
  infer::PipelineResult R2 = runOnce(Data, testOptions(2), Dir);
  EXPECT_EQ(R2.Incr.ShardsHit, 0u);
  fs::remove_all(Dir);
}

/// Warm-starting from the previous learned spec converges to the same
/// learned roles (at the paper's 0.1 threshold) as the cold solve.
TEST(ShardWarmStartTest, WarmStartConvergesToSameRoles) {
  corpus::Corpus Data = testutil::makeCorpus(3434, /*NumProjects=*/6);
  infer::PipelineResult Cold = runOnce(Data, testOptions(2));
  EXPECT_FALSE(Cold.Incr.WarmStarted);

  infer::PipelineOptions Opts = testOptions(2);
  Opts.WarmStart = &Cold.Learned;
  infer::PipelineResult Warm = runOnce(Data, Opts);
  EXPECT_TRUE(Warm.Incr.WarmStarted);

  spec::TaintSpec ColdRoles = Cold.Learned.toSpec(0.1);
  spec::TaintSpec WarmRoles = Warm.Learned.toSpec(0.1);
  for (spec::Role R : {spec::Role::Source, spec::Role::Sanitizer,
                       spec::Role::Sink})
    EXPECT_EQ(ColdRoles.sortedReps(R), WarmRoles.sortedReps(R));

  // Restarting at (a projection of) the solution is cheap: the warm solve
  // must not take more iterations than the cold one did.
  EXPECT_LE(Warm.Solve.Iterations, Cold.Solve.Iterations);
}

/// Disabling the warm start restores the exact cold trajectory even when
/// the system was composed from cached shards.
TEST(ShardWarmStartTest, ColdInitOnComposedSystemIsByteIdentical) {
  corpus::Corpus Data = testutil::makeCorpus(4545, /*NumProjects=*/5);
  std::string Reference = specOf(runOnce(Data, testOptions(2)));
  std::string Dir = testutil::makeScratchDir("shard-coldinit");
  runOnce(Data, testOptions(2), Dir); // populate
  infer::PipelineResult Replayed = runOnce(Data, testOptions(2), Dir);
  EXPECT_EQ(Replayed.Incr.ShardsHit, Data.Projects.size());
  EXPECT_FALSE(Replayed.Incr.WarmStarted);
  EXPECT_EQ(specOf(Replayed), Reference);
  fs::remove_all(Dir);
}

/// Vertex contraction crosses project boundaries, so the composed path
/// must bow out: the run falls back to direct generation and reports the
/// shard cache as unused.
TEST(ShardFallbackTest, CollapsedLearningBypassesShards) {
  corpus::Corpus Data = testutil::makeCorpus(5656, /*NumProjects=*/4);
  infer::PipelineOptions Opts = testOptions(2);
  Opts.CollapseForLearning = true;
  std::string Reference = specOf(runOnce(Data, Opts));

  std::string Dir = testutil::makeScratchDir("shard-collapse");
  infer::PipelineResult R = runOnce(Data, Opts, Dir);
  EXPECT_FALSE(R.UsedShardCache);
  EXPECT_EQ(R.Incr.ShardsHit + R.Incr.ShardsRebuilt, 0u);
  EXPECT_EQ(specOf(R), Reference);
  fs::remove_all(Dir);
}

/// An adopted graph has no per-project slices to shard by.
TEST(ShardFallbackTest, AdoptedGraphBypassesShards) {
  corpus::Corpus Data = testutil::makeCorpus(5657, /*NumProjects=*/4);
  std::string Dir = testutil::makeScratchDir("shard-adopt");
  infer::Session S(testOptions(2));
  S.enableShardCache(Dir);
  S.adoptGraph(testutil::buildGlobalGraph(Data));
  S.generateConstraints(Data.Seed);
  infer::PipelineResult R = S.solve();
  EXPECT_FALSE(R.UsedShardCache);
  EXPECT_EQ(specOf(R), specOf(runOnce(Data, testOptions(2))));
  fs::remove_all(Dir);
}

/// An unusable shard directory (the path names a file) degrades to
/// correct all-rebuild operation instead of failing the pipeline.
TEST(ShardDegradedTest, UnusableDirectoryStillProducesCorrectSpecs) {
  corpus::Corpus Data = testutil::makeCorpus(6767, /*NumProjects=*/4);
  std::string Reference = specOf(runOnce(Data, testOptions(2)));

  std::string Bogus = testutil::makeScratchDir("shard-degraded") + "/file";
  {
    std::ofstream Out(Bogus);
    Out << "not a directory\n";
  }
  infer::Session S(testOptions(2));
  S.enableShardCache(Bogus);
  ASSERT_NE(S.shardCache(), nullptr);
  EXPECT_FALSE(S.shardCache()->valid());
  EXPECT_FALSE(S.shardCache()->error().empty());
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  infer::PipelineResult R = S.solve();
  EXPECT_TRUE(R.UsedShardCache);
  EXPECT_EQ(R.Incr.ShardsHit, 0u);
  EXPECT_EQ(R.Incr.ShardsRebuilt, Data.Projects.size());
  EXPECT_EQ(R.Incr.ShardsStored, 0u);
  EXPECT_EQ(specOf(R), Reference);
}

/// Both caches together: a fully warm run replays the graphs *and* the
/// shards and still matches the uncached reference.
TEST(ShardPipelineComboTest, GraphAndShardCachesComposeCorrectly) {
  corpus::Corpus Data = testutil::makeCorpus(7878, /*NumProjects=*/5);
  std::string Reference = specOf(runOnce(Data, testOptions(4)));
  std::string Dir = testutil::makeScratchDir("shard-combo");

  auto runBoth = [&]() {
    infer::Session S(testOptions(4));
    S.enableCache(Dir);
    S.enableShardCache(Dir);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    return S.solve();
  };
  infer::PipelineResult Cold = runBoth();
  EXPECT_EQ(Cold.Cache.Misses, Data.Projects.size());
  EXPECT_EQ(Cold.Incr.ShardsRebuilt, Data.Projects.size());
  EXPECT_EQ(specOf(Cold), Reference);

  infer::PipelineResult Warm = runBoth();
  EXPECT_EQ(Warm.Cache.Hits, Data.Projects.size());
  EXPECT_EQ(Warm.Incr.ShardsHit, Data.Projects.size());
  EXPECT_EQ(specOf(Warm), Reference);
  fs::remove_all(Dir);
}

} // namespace
