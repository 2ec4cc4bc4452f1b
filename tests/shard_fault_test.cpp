//===- tests/shard_fault_test.cpp - Shard codec corruption injection ------===//
//
// Fault injection against the shard codec and cache: every truncation
// point and a bit flip in every byte of a valid encoding must produce a
// descriptive error, never a partially-populated shard; ShardCache must
// evict the bad entry; and a Session run over a corrupted shard store must
// transparently re-extract with byte-identical output. Mirrors
// cache_fault_test.cpp for the graph cache.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "cache/ShardCache.h"
#include "constraints/ShardCodec.h"
#include "infer/Pipeline.h"
#include "spec/SpecIO.h"
#include "support/BinaryCodec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <utility>

using namespace seldon;
using namespace seldon::constraints;

namespace fs = std::filesystem;

namespace {

/// A non-trivial shard (one whole project's files) plus a shard cache key.
struct Fixture {
  corpus::Corpus Data = testutil::makeCorpus(9191, /*NumProjects=*/2);
  propgraph::PropagationGraph Graph =
      propgraph::buildProjectGraph(Data.Projects.front());
  ConstraintShard Shard = extractShard(
      Graph, 0, static_cast<uint32_t>(Graph.files().size()));
  cache::CacheKey Key = cache::projectShardKey(
      cache::projectCacheKey(Data.Projects.front(),
                             propgraph::BuildOptions()),
      GenOptions(), Data.Seed);
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
// Codec-level: round trip, truncation at every byte, flip of every byte
//===----------------------------------------------------------------------===//

TEST(ShardCodecTest, RoundTripIsCanonical) {
  Fixture F;
  ASSERT_GT(F.Shard.numAnchors(), 0u) << "fixture shard is trivial";
  std::string Encoded = encodeShard(F.Shard);
  io::IOResult<ConstraintShard> R = decodeShard(Encoded);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Value.Strings, F.Shard.Strings);
  EXPECT_EQ(R.Value.Events.size(), F.Shard.Events.size());
  EXPECT_EQ(R.Value.Files.size(), F.Shard.Files.size());
  EXPECT_EQ(R.Value.numAnchors(), F.Shard.numAnchors());
  // Canonical: re-encoding the decoded shard reproduces the bytes.
  EXPECT_EQ(encodeShard(R.Value), Encoded);
}

TEST(ShardCodecFaultTest, EveryTruncationIsRejected) {
  Fixture F;
  std::string Encoded = encodeShard(F.Shard);
  ASSERT_GT(Encoded.size(), 16u);
  for (size_t Len = 0; Len < Encoded.size(); ++Len) {
    io::IOResult<ConstraintShard> R =
        decodeShard(std::string_view(Encoded).substr(0, Len));
    EXPECT_FALSE(R.ok()) << "truncation to " << Len
                         << " byte(s) decoded successfully";
    EXPECT_FALSE(R.Error.empty());
    // Strictness: the value is never partially populated.
    EXPECT_TRUE(R.Value.Strings.empty()) << "partial shard at " << Len;
    EXPECT_TRUE(R.Value.Files.empty());
  }
}

TEST(ShardCodecFaultTest, EveryBitFlipIsRejected) {
  Fixture F;
  std::string Encoded = encodeShard(F.Shard);
  std::string Baseline = encodeShard(F.Shard);
  for (size_t I = 0; I < Encoded.size(); ++I) {
    std::string Mutated = Encoded;
    Mutated[I] = static_cast<char>(Mutated[I] ^ 0xff);
    io::IOResult<ConstraintShard> R = decodeShard(Mutated);
    EXPECT_FALSE(R.ok()) << "flip at byte " << I << " decoded successfully";
    EXPECT_FALSE(R.Error.empty()) << "flip at byte " << I;
    EXPECT_TRUE(R.Value.Strings.empty()) << "partial shard, flip at " << I;
  }
  EXPECT_EQ(Encoded, Baseline);
}

TEST(ShardCodecFaultTest, HugeCountIsAnErrorNotAThrow) {
  // Checksum-valid frames declaring 2^61 elements: the decoder must refuse
  // the count, never reserve() for it — also when the count follows a
  // failed read (here a first string whose length overruns the payload).
  std::string HugeStrings;
  codec::putVarint(HugeStrings, uint64_t(1) << 61);
  std::string HugeEventsAfterOverrun;
  codec::putVarint(HugeEventsAfterOverrun, 1);   // string count
  codec::putVarint(HugeEventsAfterOverrun, 100); // 9 bytes follow
  codec::putVarint(HugeEventsAfterOverrun, uint64_t(1) << 61);
  const std::pair<std::string, const char *> Cases[] = {
      {HugeStrings, "string count"},
      {HugeEventsAfterOverrun, "representation string"}};
  for (const auto &[Payload, FirstFailure] : Cases) {
    std::string Frame = codec::encodeFrame(
        {"SCSH", ShardCodecVersion, "constraint shard"}, Payload);
    io::IOResult<ConstraintShard> R;
    ASSERT_NO_THROW(R = decodeShard(Frame)) << FirstFailure;
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.Error.find(FirstFailure), std::string::npos) << R.Error;
    EXPECT_TRUE(R.Value.Strings.empty()) << FirstFailure;
    EXPECT_TRUE(R.Value.Events.empty()) << FirstFailure;
  }
}

//===----------------------------------------------------------------------===//
// Cache-level: mutated entries are evicted, then re-extracted
//===----------------------------------------------------------------------===//

struct Region {
  const char *Name;
  size_t Offset;
};

TEST(ShardCacheFaultTest, FlippedRegionsAreEvictedThenRestored) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("shard-fault");
  cache::ShardCache Cache(Dir);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  ASSERT_TRUE(Cache.store(F.Key, F.Shard));
  std::string Path = Cache.entryPath(F.Key);
  std::string Valid = readFileBytes(Path);
  ASSERT_GT(Valid.size(), 32u);

  // Offsets: key prefix [0,8), magic [8,12), version [12,13), checksum
  // [13,21), payload length varint [21,...), then payload (strings first,
  // events midway, file anchors near the end).
  const Region Regions[] = {
      {"key prefix", 0},
      {"magic", 8},
      {"format version", 12},
      {"checksum", 13},
      {"payload length", 21},
      {"payload head (strings)", 24},
      {"payload middle (events)", Valid.size() / 2},
      {"payload tail (anchors)", Valid.size() - 1},
  };

  for (const Region &R : Regions) {
    ASSERT_LT(R.Offset, Valid.size()) << R.Name;
    std::string Mutated = Valid;
    Mutated[R.Offset] = static_cast<char>(Mutated[R.Offset] ^ 0xff);
    writeFileBytes(Path, Mutated);

    cache::ShardCache Fresh(Dir);
    uint64_t EvictionsBefore = Fresh.stats().Evictions;
    std::optional<ConstraintShard> Loaded = Fresh.load(F.Key);
    EXPECT_FALSE(Loaded.has_value())
        << "corrupt " << R.Name << " entry loaded successfully";
    cache::CacheStats Stats = Fresh.stats();
    EXPECT_EQ(Stats.Evictions, EvictionsBefore + 1) << R.Name;
    EXPECT_EQ(Stats.Hits, 0u) << R.Name;
    ASSERT_FALSE(Stats.Errors.empty()) << R.Name;
    EXPECT_NE(Stats.Errors.back().find("evicted"), std::string::npos)
        << R.Name << ": " << Stats.Errors.back();
    EXPECT_FALSE(fs::exists(Path)) << R.Name << " entry survived eviction";

    // Re-extraction + re-store round-trips to a loadable entry again.
    ASSERT_TRUE(Fresh.store(F.Key, F.Shard)) << R.Name;
    std::optional<ConstraintShard> Reloaded = Fresh.load(F.Key);
    ASSERT_TRUE(Reloaded.has_value()) << R.Name;
    EXPECT_EQ(Reloaded->numAnchors(), F.Shard.numAnchors());
    EXPECT_EQ(readFileBytes(Path), Valid) << R.Name;
  }
  fs::remove_all(Dir);
}

TEST(ShardCacheFaultTest, EveryTruncationOfAnEntryIsEvicted) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("shard-trunc");
  cache::ShardCache Cache(Dir);
  ASSERT_TRUE(Cache.valid()) << Cache.error();
  ASSERT_TRUE(Cache.store(F.Key, F.Shard));
  std::string Path = Cache.entryPath(F.Key);
  std::string Valid = readFileBytes(Path);

  // Step 7 keeps the sweep fast while still crossing every header/section
  // boundary; the codec-level test above covers every single byte.
  for (size_t Len = 0; Len < Valid.size(); Len += 7) {
    writeFileBytes(Path, Valid.substr(0, Len));
    std::optional<ConstraintShard> Loaded = Cache.load(F.Key);
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

TEST(ShardCacheFaultTest, WrongKeyEntryIsRejected) {
  Fixture F;
  std::string Dir = testutil::makeScratchDir("shard-wrongkey");
  cache::ShardCache Cache(Dir);
  ASSERT_TRUE(Cache.store(F.Key, F.Shard));

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

/// End to end: a corrupted shard inside a Session run falls back to a
/// fresh extraction with byte-identical output and a re-written entry.
TEST(ShardCacheFaultTest, SessionReextractsCorruptShardsTransparently) {
  corpus::Corpus Data = testutil::makeCorpus(1515, /*NumProjects=*/4);
  infer::PipelineOptions Opts;
  Opts.Solve.MaxIterations = 200;
  Opts.Jobs = 1;

  std::string RefSpec;
  {
    infer::Session S(Opts);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    RefSpec = spec::writeLearnedSpec(S.solve().Learned);
  }

  std::string Dir = testutil::makeScratchDir("shard-session");
  auto runCached = [&]() {
    infer::Session S(Opts);
    S.enableShardCache(Dir);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    return S.solve();
  };
  {
    infer::PipelineResult Cold = runCached();
    EXPECT_EQ(Cold.Incr.ShardsRebuilt, Data.Projects.size());
  }

  // Corrupt one entry; the next run must evict + re-extract exactly it.
  std::vector<std::string> Entries;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Entries.push_back(E.path().string());
  ASSERT_EQ(Entries.size(), Data.Projects.size());
  std::string Victim = Entries.front();
  std::string Bytes = readFileBytes(Victim);
  Bytes[Bytes.size() / 2] = static_cast<char>(Bytes[Bytes.size() / 2] ^ 0xff);
  writeFileBytes(Victim, Bytes);

  {
    infer::PipelineResult Warm = runCached();
    EXPECT_EQ(Warm.Incr.ShardsHit, Data.Projects.size() - 1);
    EXPECT_EQ(Warm.Incr.ShardsRebuilt, 1u);
    EXPECT_EQ(Warm.ShardCacheStats.Evictions, 1u);
    ASSERT_EQ(Warm.ShardCacheStats.Errors.size(), 1u);
    EXPECT_NE(Warm.ShardCacheStats.Errors[0].find("evicted"),
              std::string::npos);
    EXPECT_EQ(spec::writeLearnedSpec(Warm.Learned), RefSpec);
  }

  // The re-extraction re-stored the entry: the next run is all hits.
  {
    infer::PipelineResult Warm = runCached();
    EXPECT_EQ(Warm.Incr.ShardsHit, Data.Projects.size());
    EXPECT_EQ(Warm.Incr.ShardsRebuilt, 0u);
    EXPECT_EQ(spec::writeLearnedSpec(Warm.Learned), RefSpec);
  }
  fs::remove_all(Dir);
}

} // namespace
