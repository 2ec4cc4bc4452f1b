//===- tests/cache_fault_test.cpp - Cache corruption injection ------------===//
//
// Fault injection against the cache loader: every truncation point and a
// bit flip in every region of a valid entry must produce a descriptive
// error, never a partially-populated graph; GraphCache must evict the bad
// entry and the pipeline must transparently rebuild it with byte-identical
// output.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "cache/GraphCache.h"
#include "cache/ShardCache.h"
#include "infer/Pipeline.h"
#include "propgraph/GraphCodec.h"
#include "spec/SpecIO.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

using namespace seldon;
using namespace seldon::propgraph;

namespace fs = std::filesystem;

namespace {

/// A non-trivial project graph plus its cache key, shared by the suites.
struct Fixture {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/2);
  const pysem::Project &Proj = Data.Projects.front();
  PropagationGraph Graph = buildProjectGraph(Proj);
  cache::CacheKey Key =
      cache::projectCacheKey(Proj, propgraph::BuildOptions());
};

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

//===----------------------------------------------------------------------===//
// Codec-level: truncation at every byte, flip of every byte
//===----------------------------------------------------------------------===//

TEST(CodecFaultTest, EveryTruncationIsRejected) {
  Fixture F;
  std::string Encoded = encodeGraph(F.Graph);
  ASSERT_GT(Encoded.size(), 16u);
  for (size_t Len = 0; Len < Encoded.size(); ++Len) {
    io::IOResult<PropagationGraph> R =
        decodeGraph(std::string_view(Encoded).substr(0, Len));
    EXPECT_FALSE(R.ok()) << "truncation to " << Len
                         << " byte(s) decoded successfully";
    EXPECT_FALSE(R.Error.empty());
    // Strictness: the value is never partially populated.
    EXPECT_EQ(R.Value.numEvents(), 0u) << "partial graph at length " << Len;
    EXPECT_EQ(R.Value.files().size(), 0u);
  }
}

TEST(CodecFaultTest, EveryBitFlipIsRejected) {
  Fixture F;
  std::string Encoded = encodeGraph(F.Graph);
  std::string Baseline = encodeGraph(F.Graph);
  for (size_t I = 0; I < Encoded.size(); ++I) {
    std::string Mutated = Encoded;
    Mutated[I] = static_cast<char>(Mutated[I] ^ 0xff);
    io::IOResult<PropagationGraph> R = decodeGraph(Mutated);
    EXPECT_FALSE(R.ok()) << "flip at byte " << I
                         << " decoded successfully";
    EXPECT_FALSE(R.Error.empty()) << "flip at byte " << I;
    EXPECT_EQ(R.Value.numEvents(), 0u) << "partial graph, flip at " << I;
  }
  // The sweep itself must not have perturbed anything.
  EXPECT_EQ(Encoded, Baseline);
}

//===----------------------------------------------------------------------===//
// Cache-level: mutated entries are evicted and rebuilt
//===----------------------------------------------------------------------===//

/// Region boundaries of a cache entry file: the 8-byte key prefix, then
/// the codec's header fields, then the payload sections. One mutation per
/// region exercises every distinct rejection path.
struct Region {
  const char *Name;
  size_t Offset;
};

TEST(CacheFaultTest, FlippedRegionsAreEvictedThenRebuilt) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("cache-fault");
  cache::GraphCache Cache(Dir);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  ASSERT_TRUE(Cache.store(F.Key, F.Graph));
  std::string Path = Cache.entryPath(F.Key);
  std::string Valid = readFileBytes(Path);
  ASSERT_GT(Valid.size(), 32u);

  // Offsets: key prefix [0,8), magic [8,12), version [12,13), checksum
  // [13,21), payload length varint [21,...), then payload (files first,
  // events midway, edges near the end).
  const Region Regions[] = {
      {"key prefix", 0},
      {"magic", 8},
      {"format version", 12},
      {"checksum", 13},
      {"payload length", 21},
      {"payload head (files)", 24},
      {"payload middle (events)", Valid.size() / 2},
      {"payload tail (edges)", Valid.size() - 1},
  };

  for (const Region &R : Regions) {
    ASSERT_LT(R.Offset, Valid.size()) << R.Name;
    std::string Mutated = Valid;
    Mutated[R.Offset] = static_cast<char>(Mutated[R.Offset] ^ 0xff);
    writeFileBytes(Path, Mutated);

    cache::GraphCache Fresh(Dir);
    uint64_t EvictionsBefore = Fresh.stats().Evictions;
    std::optional<PropagationGraph> Loaded = Fresh.load(F.Key);
    EXPECT_FALSE(Loaded.has_value())
        << "corrupt " << R.Name << " entry loaded successfully";
    cache::CacheStats Stats = Fresh.stats();
    EXPECT_EQ(Stats.Evictions, EvictionsBefore + 1) << R.Name;
    EXPECT_EQ(Stats.Hits, 0u) << R.Name;
    ASSERT_FALSE(Stats.Errors.empty()) << R.Name;
    EXPECT_NE(Stats.Errors.back().find("evicted"), std::string::npos)
        << R.Name << ": " << Stats.Errors.back();
    // The bad entry is gone from disk...
    EXPECT_FALSE(fs::exists(Path))
        << R.Name << " entry survived eviction";

    // ...and a rebuild + re-store round-trips to a loadable entry again.
    ASSERT_TRUE(Fresh.store(F.Key, F.Graph)) << R.Name;
    std::optional<PropagationGraph> Reloaded = Fresh.load(F.Key);
    ASSERT_TRUE(Reloaded.has_value()) << R.Name;
    EXPECT_EQ(Reloaded->numEvents(), F.Graph.numEvents());
    EXPECT_EQ(Reloaded->numEdges(), F.Graph.numEdges());
    EXPECT_EQ(readFileBytes(Path), Valid) << R.Name;
  }
  fs::remove_all(Dir);
}

TEST(CacheFaultTest, EveryTruncationOfAnEntryIsEvicted) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("cache-trunc");
  cache::GraphCache Cache(Dir);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  ASSERT_TRUE(Cache.store(F.Key, F.Graph));
  std::string Path = Cache.entryPath(F.Key);
  std::string Valid = readFileBytes(Path);

  // Step 7 keeps the sweep fast while still crossing every header/section
  // boundary; the codec-level test above covers every single byte.
  for (size_t Len = 0; Len < Valid.size(); Len += 7) {
    writeFileBytes(Path, Valid.substr(0, Len));
    std::optional<PropagationGraph> Loaded = Cache.load(F.Key);
    EXPECT_FALSE(Loaded.has_value())
        << "entry truncated to " << Len << " byte(s) loaded";
    EXPECT_FALSE(fs::exists(Path)) << "truncated entry not evicted";
  }
  cache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_GT(Stats.Evictions, 0u);
  EXPECT_EQ(Stats.Evictions, Stats.Errors.size());
  fs::remove_all(Dir);
}

TEST(CacheFaultTest, WrongKeyEntryIsRejected) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("cache-wrongkey");
  cache::GraphCache Cache(Dir);
  ASSERT_TRUE(Cache.store(F.Key, F.Graph));

  // Copy the valid entry under a different key's filename: the stored key
  // prefix no longer matches the lookup key.
  cache::CacheKey Other;
  Other.Hash = F.Key.Hash + 1;
  fs::copy_file(Cache.entryPath(F.Key), Cache.entryPath(Other));
  EXPECT_FALSE(Cache.load(Other).has_value());
  cache::CacheStats Stats = Cache.stats();
  ASSERT_FALSE(Stats.Errors.empty());
  EXPECT_NE(Stats.Errors.back().find("key mismatch"), std::string::npos)
      << Stats.Errors.back();
  EXPECT_FALSE(fs::exists(Cache.entryPath(Other)));
  fs::remove_all(Dir);
}

/// End to end: a corrupted entry inside a Session run falls back to a cold
/// build with byte-identical output and a re-written, loadable entry.
TEST(CacheFaultTest, SessionRebuildsCorruptEntriesTransparently) {
  corpus::Corpus Data = testutil::makeCorpus(505, /*NumProjects=*/4);
  infer::PipelineOptions Opts;
  Opts.Solve.MaxIterations = 200;
  Opts.Jobs = 1;

  infer::PipelineResult Reference;
  {
    infer::Session S(Opts);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    Reference = S.solve();
  }
  std::string RefSpec = spec::writeLearnedSpec(Reference.Learned);

  std::string Dir = testutil::makeScratchDir("cache-session");
  {
    infer::Session S(Opts);
    S.enableCache(Dir);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    infer::PipelineResult Cold = S.solve();
    EXPECT_EQ(Cold.Cache.Misses, Data.Projects.size());
  }

  // Corrupt one entry; a warm run must evict + rebuild exactly it.
  std::vector<std::string> Entries;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Entries.push_back(E.path().string());
  ASSERT_EQ(Entries.size(), Data.Projects.size());
  std::string Victim = Entries.front();
  std::string Bytes = readFileBytes(Victim);
  Bytes[Bytes.size() / 2] = static_cast<char>(Bytes[Bytes.size() / 2] ^ 0xff);
  writeFileBytes(Victim, Bytes);

  {
    infer::Session S(Opts);
    S.enableCache(Dir);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    infer::PipelineResult Warm = S.solve();
    EXPECT_EQ(Warm.Cache.Hits, Data.Projects.size() - 1);
    EXPECT_EQ(Warm.Cache.Misses, 1u);
    EXPECT_EQ(Warm.Cache.Evictions, 1u);
    ASSERT_EQ(Warm.Cache.Errors.size(), 1u);
    EXPECT_NE(Warm.Cache.Errors[0].find("evicted"), std::string::npos);
    EXPECT_EQ(spec::writeLearnedSpec(Warm.Learned), RefSpec);
  }

  // The rebuild re-stored the entry: a second warm run is all hits.
  {
    infer::Session S(Opts);
    S.enableCache(Dir);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    infer::PipelineResult Warm = S.solve();
    EXPECT_EQ(Warm.Cache.Hits, Data.Projects.size());
    EXPECT_EQ(Warm.Cache.Misses, 0u);
    EXPECT_EQ(spec::writeLearnedSpec(Warm.Learned), RefSpec);
  }
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Crash-leaked store temporaries
//===----------------------------------------------------------------------===//

TEST(CacheFaultTest, StaleStoreTempsAreSweptOnOpen) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("cache-tmp-sweep");
  std::string Entry;
  {
    cache::GraphCache Cache(Dir);
    ASSERT_TRUE(Cache.valid()) << Cache.error();
    ASSERT_TRUE(Cache.store(F.Key, F.Graph));
    Entry = Cache.entryPath(F.Key);
  }
  // Plant: an hour-old temp (a crashed store), a fresh temp (a live
  // writer in another process), and a temp-lookalike whose suffix is not
  // all digits (never produced by a store — must survive).
  std::string OldTmp = Entry + ".tmp7";
  std::string FreshTmp = Entry + ".tmp8";
  std::string Lookalike = Entry + ".tmp9x";
  writeFileBytes(OldTmp, "half-written");
  writeFileBytes(FreshTmp, "in-flight");
  writeFileBytes(Lookalike, "not a temp");
  fs::last_write_time(OldTmp, fs::file_time_type::clock::now() -
                                  std::chrono::hours(1));

  cache::GraphCache Reopened(Dir);
  ASSERT_TRUE(Reopened.valid()) << Reopened.error();
  EXPECT_EQ(Reopened.stats().StaleTempsRemoved, 1u);
  EXPECT_FALSE(fs::exists(OldTmp)) << "aged temp must be swept";
  EXPECT_TRUE(fs::exists(FreshTmp)) << "recent temp may be a live writer";
  EXPECT_TRUE(fs::exists(Lookalike)) << "non-numeric suffix is not a temp";
  // The published entry is untouched and still loads.
  EXPECT_TRUE(Reopened.load(F.Key).has_value());
  fs::remove_all(Dir);
}

TEST(CacheFaultTest, ShardCacheSweepsItsOwnTemps) {
  std::string Dir = testutil::makeScratchDir("shard-tmp-sweep");
  std::string OldTmp = Dir + "/0123456789abcdef.scs.tmp3";
  // A GraphCache temp in the same directory belongs to a different
  // suffix and must not match the shard sweep.
  std::string OtherSuffix = Dir + "/0123456789abcdef.spg.tmp4";
  writeFileBytes(OldTmp, "half-written");
  writeFileBytes(OtherSuffix, "different cache");
  auto Old = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(OldTmp, Old);
  fs::last_write_time(OtherSuffix, Old);

  cache::ShardCache Cache(Dir);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  EXPECT_EQ(Cache.stats().StaleTempsRemoved, 1u);
  EXPECT_FALSE(fs::exists(OldTmp));
  EXPECT_TRUE(fs::exists(OtherSuffix));
  fs::remove_all(Dir);
}

TEST(CacheFaultTest, SweepHonorsAgeThreshold) {
  std::string Dir = testutil::makeScratchDir("sweep-age");
  std::string Tmp = Dir + "/aa.spg.tmp0";
  writeFileBytes(Tmp, "x");
  // Age 0 disables the live-writer grace period: even a fresh temp goes.
  EXPECT_EQ(io::sweepStaleTemps(Dir, ".spg", /*MaxAgeSeconds=*/0), 1u);
  EXPECT_FALSE(fs::exists(Tmp));
  fs::remove_all(Dir);
}

} // namespace
