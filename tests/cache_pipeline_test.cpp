//===- tests/cache_pipeline_test.cpp - Differential cache runs ------------===//
//
// The cache's headline guarantee, tested differentially: cold, warm, and
// mixed hit/miss pipeline runs must produce learned specifications
// byte-identical to an uncached run, serially and in parallel. Stale
// entries (project source changed) must miss and rebuild, and an unusable
// cache directory must degrade to correct all-miss operation.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "cache/GraphCache.h"
#include "infer/Pipeline.h"
#include "spec/SpecIO.h"
#include "support/BinaryCodec.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

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

/// Runs the staged pipeline over \p Data, optionally with a cache at
/// \p CacheDir, and returns the result.
infer::PipelineResult runOnce(const corpus::Corpus &Data, unsigned Jobs,
                              const std::string &CacheDir = "") {
  infer::Session S(testOptions(Jobs));
  if (!CacheDir.empty())
    S.enableCache(CacheDir);
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  return S.solve();
}

std::string specOf(const infer::PipelineResult &R) {
  return spec::writeLearnedSpec(R.Learned);
}

size_t countEntries(const std::string &Dir) {
  size_t N = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    N += E.is_regular_file();
  return N;
}

class CachePipelineTest : public ::testing::TestWithParam<unsigned> {};

/// Cold -> warm -> mixed, all byte-identical to the uncached reference.
TEST_P(CachePipelineTest, ColdWarmMixedAreByteIdentical) {
  const unsigned Jobs = GetParam();
  corpus::Corpus Data = testutil::makeCorpus(2024, /*NumProjects=*/6);
  std::string Reference = specOf(runOnce(Data, Jobs));

  std::string Dir = testutil::makeScratchDir("cache-diff");

  infer::PipelineResult Cold = runOnce(Data, Jobs, Dir);
  EXPECT_TRUE(Cold.UsedCache);
  EXPECT_EQ(Cold.Cache.Hits, 0u);
  EXPECT_EQ(Cold.Cache.Misses, Data.Projects.size());
  EXPECT_EQ(Cold.Cache.Stores, Data.Projects.size());
  EXPECT_GT(Cold.Cache.BytesWritten, 0u);
  EXPECT_EQ(specOf(Cold), Reference);
  EXPECT_EQ(countEntries(Dir), Data.Projects.size());

  infer::PipelineResult Warm = runOnce(Data, Jobs, Dir);
  EXPECT_EQ(Warm.Cache.Hits, Data.Projects.size());
  EXPECT_EQ(Warm.Cache.Misses, 0u);
  EXPECT_GT(Warm.Cache.BytesRead, 0u);
  EXPECT_EQ(specOf(Warm), Reference);

  // Mixed: delete half the entries; those projects rebuild, the rest hit.
  size_t Deleted = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (Deleted * 2 >= Data.Projects.size())
      break;
    fs::remove(E.path());
    ++Deleted;
  }
  ASSERT_GT(Deleted, 0u);
  infer::PipelineResult Mixed = runOnce(Data, Jobs, Dir);
  EXPECT_EQ(Mixed.Cache.Hits, Data.Projects.size() - Deleted);
  EXPECT_EQ(Mixed.Cache.Misses, Deleted);
  EXPECT_EQ(specOf(Mixed), Reference);
  EXPECT_EQ(countEntries(Dir), Data.Projects.size());

  // The intermediate artifacts match too, not just the rendered spec.
  EXPECT_EQ(Mixed.Graph->numEvents(), Cold.Graph->numEvents());
  EXPECT_EQ(Mixed.Graph->numEdges(), Cold.Graph->numEdges());
  EXPECT_EQ(Mixed.System.Constraints.size(), Cold.System.Constraints.size());
  fs::remove_all(Dir);
}

/// Serial and parallel warm runs agree with each other bit-for-bit.
TEST_P(CachePipelineTest, WarmRunMatchesSerialWarmRun) {
  const unsigned Jobs = GetParam();
  corpus::Corpus Data = testutil::makeCorpus(3077, /*NumProjects=*/6);
  std::string Dir = testutil::makeScratchDir("cache-jobs");
  runOnce(Data, Jobs, Dir); // populate

  infer::PipelineResult Serial = runOnce(Data, 1, Dir);
  infer::PipelineResult Parallel = runOnce(Data, Jobs, Dir);
  EXPECT_EQ(Serial.Cache.Hits, Data.Projects.size());
  EXPECT_EQ(Parallel.Cache.Hits, Data.Projects.size());
  EXPECT_EQ(specOf(Serial), specOf(Parallel));
  ASSERT_EQ(Serial.Solve.X.size(), Parallel.Solve.X.size());
  for (size_t I = 0; I < Serial.Solve.X.size(); ++I)
    EXPECT_DOUBLE_EQ(Serial.Solve.X[I], Parallel.Solve.X[I]) << "var " << I;
  fs::remove_all(Dir);
}

/// The graph build parses only what the cache cannot serve: every file on
/// a cold run, none on an all-hit run, and after one project is edited
/// exactly that project's files. The parse.files metric agrees.
TEST_P(CachePipelineTest, ParsesOnlyGraphCacheMisses) {
  const unsigned Jobs = GetParam();
  corpus::Corpus Data = testutil::makeCorpus(4049, /*NumProjects=*/6);
  std::string Dir = testutil::makeScratchDir("cache-parse");
  metrics::Registry &Reg = metrics::Registry::global();
  auto Build = [&]() {
    Reg.reset();
    Reg.setEnabled(true);
    infer::Session S(testOptions(Jobs));
    S.enableCache(Dir);
    S.addProjects(Data.Projects);
    S.buildGraph();
    Reg.setEnabled(false);
    EXPECT_EQ(Reg.counter("parse.files").value(), S.incrStats().FilesParsed);
    return S.incrStats();
  };
  size_t Files = 0;
  for (const pysem::Project &P : Data.Projects)
    Files += P.modules().size();
  EXPECT_EQ(Build().FilesParsed, Files);

  infer::IncrStats AllHit = Build();
  EXPECT_EQ(AllHit.FilesParsed, 0u);
  EXPECT_EQ(AllHit.ParseDiagnostics, 0u);

  // The edit carries a syntax error, so its diagnostics surface too.
  pysem::Project &Edited = Data.Projects[2];
  Edited.addModule("app/extra.py", "import flask\n"
                                   "def broken(:\n"
                                   "    pass\n");
  infer::IncrStats OneEdit = Build();
  EXPECT_EQ(OneEdit.FilesParsed, Edited.modules().size());
  EXPECT_GT(OneEdit.ParseDiagnostics, 0u);
  Reg.reset();
  fs::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(Jobs, CachePipelineTest, ::testing::Values(1u, 4u));

/// Touching a project's source changes its cache key: the stale entry no
/// longer matches, the project rebuilds, and the result reflects the new
/// source — never the cached stale graph.
TEST(CacheStalenessTest, TouchedProjectRebuilds) {
  corpus::Corpus Data = testutil::makeCorpus(808, /*NumProjects=*/5);
  std::string Dir = testutil::makeScratchDir("cache-stale");
  infer::PipelineResult Cold = runOnce(Data, 2, Dir);
  EXPECT_EQ(Cold.Cache.Misses, Data.Projects.size());

  // "Edit" one project by adding a module with a fresh taint flow.
  Data.Projects.front().addModule(
      "app/extra.py", "import flask\n"
                      "def extra():\n"
                      "    v = flask.request.args.get('x')\n"
                      "    flask.render_template('t.html', value=v)\n");

  infer::PipelineResult Warm = runOnce(Data, 2, Dir);
  EXPECT_EQ(Warm.Cache.Hits, Data.Projects.size() - 1);
  EXPECT_EQ(Warm.Cache.Misses, 1u);
  EXPECT_EQ(Warm.Cache.Evictions, 0u) << "stale key must miss, not evict";
  EXPECT_GT(Warm.Graph->numEvents(), Cold.Graph->numEvents())
      << "cached run ignored the edited source";

  // The rebuilt result must equal an uncached run over the edited corpus.
  std::string Fresh = specOf(runOnce(Data, 2));
  EXPECT_EQ(specOf(Warm), Fresh);

  // The stale entry is orphaned, not reused: a second warm run is all hits
  // again under the new key.
  infer::PipelineResult Again = runOnce(Data, 2, Dir);
  EXPECT_EQ(Again.Cache.Hits, Data.Projects.size());
  EXPECT_EQ(specOf(Again), Fresh);
  fs::remove_all(Dir);
}

/// An unusable cache directory (the path names a file) degrades to correct
/// all-miss operation instead of failing the pipeline.
TEST(CacheDegradedTest, UnusableDirectoryStillProducesCorrectSpecs) {
  corpus::Corpus Data = testutil::makeCorpus(606, /*NumProjects=*/4);
  std::string Reference = specOf(runOnce(Data, 2));

  std::string Bogus = testutil::makeScratchDir("cache-degraded") + "/file";
  {
    std::ofstream Out(Bogus);
    Out << "not a directory\n";
  }
  infer::Session S(testOptions(2));
  S.enableCache(Bogus);
  ASSERT_NE(S.graphCache(), nullptr);
  EXPECT_FALSE(S.graphCache()->valid());
  EXPECT_FALSE(S.graphCache()->error().empty());
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  infer::PipelineResult R = S.solve();
  EXPECT_EQ(R.Cache.Hits, 0u);
  EXPECT_EQ(R.Cache.Misses, Data.Projects.size());
  EXPECT_EQ(specOf(R), Reference);
}

/// The key is derived from content + build options, not project identity:
/// renaming a project still hits; changing a build option misses.
TEST(CacheKeyTest, KeyTracksContentAndOptionsNotIdentity) {
  corpus::Corpus Data = testutil::makeCorpus(909, /*NumProjects=*/3);
  const pysem::Project &P = Data.Projects.front();

  propgraph::BuildOptions Build;
  cache::CacheKey Base = cache::projectCacheKey(P, Build);

  pysem::Project Renamed("totally-different-name");
  for (const pysem::ModuleInfo &M : P.modules())
    Renamed.addModule(M.Path, M.Source);
  EXPECT_EQ(cache::projectCacheKey(Renamed, Build).Hash, Base.Hash);

  propgraph::BuildOptions Deep;
  Deep.MaxInlineDepth = Build.MaxInlineDepth + 1;
  EXPECT_NE(cache::projectCacheKey(P, Deep).Hash, Base.Hash);

  propgraph::BuildOptions NoPts;
  NoPts.UsePointsTo = !Build.UsePointsTo;
  EXPECT_NE(cache::projectCacheKey(P, NoPts).Hash, Base.Hash);

  // Distinct projects in the corpus get distinct keys.
  cache::CacheKey Other =
      cache::projectCacheKey(Data.Projects[1], Build);
  EXPECT_NE(Other.Hash, Base.Hash);
}

/// The key hashes a tag, the codec version, the builder's rules version,
/// every BuildOptions field, then each module's path and source. This
/// reference recomputes it, so the builder version provably takes part:
/// graphs cached under older rules miss once and are rebuilt.
TEST(CacheKeyTest, BuilderVersionTakesPartInTheKey) {
  corpus::Corpus Data = testutil::makeCorpus(909, /*NumProjects=*/1);
  const pysem::Project &P = Data.Projects.front();
  propgraph::BuildOptions Build;
  auto Reference = [&](uint64_t BuilderVersion) {
    uint64_t Hash = 0xcbf29ce484222325ull;
    codec::hashChunk(Hash, "seldon-graph-cache");
    codec::hashValue(Hash, propgraph::GraphCodecVersion);
    codec::hashValue(Hash, BuilderVersion);
    codec::hashValue(Hash, static_cast<uint64_t>(Build.MaxInlineDepth));
    codec::hashValue(Hash, Build.ModelLocals);
    codec::hashValue(Hash, Build.UsePointsTo);
    codec::hashValue(Hash, Build.ArgPositionReps);
    codec::hashValue(Hash, Build.PreciseInlining);
    codec::hashValue(Hash, Build.CrossModuleFlows);
    codec::hashValue(Hash, P.modules().size());
    for (const pysem::ModuleInfo &M : P.modules()) {
      codec::hashChunk(Hash, M.Path);
      codec::hashChunk(Hash, M.Source);
    }
    return Hash;
  };
  EXPECT_EQ(cache::projectCacheKey(P, Build).Hash,
            Reference(propgraph::GraphBuilderVersion));
  EXPECT_NE(cache::projectCacheKey(P, Build).Hash,
            Reference(propgraph::GraphBuilderVersion - 1));
}

} // namespace
