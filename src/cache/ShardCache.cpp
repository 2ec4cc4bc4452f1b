//===- cache/ShardCache.cpp - Persistent constraint-shard cache -----------===//

#include "cache/ShardCache.h"

#include "support/BinaryCodec.h"

#include <algorithm>
#include <cstring>

using namespace seldon;
using namespace seldon::cache;

CacheKey seldon::cache::projectShardKey(const CacheKey &GraphKey,
                                        const constraints::GenOptions &Gen,
                                        const spec::SeedSpec &Seed) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  codec::hashChunk(Hash, "seldon-shard-cache");
  codec::hashValue(Hash, constraints::ShardCodecVersion);

  // Every generation knob participates: flipping any must regenerate.
  uint64_t CBits;
  static_assert(sizeof(CBits) == sizeof(Gen.C), "C must be a double");
  std::memcpy(&CBits, &Gen.C, sizeof(CBits));
  codec::hashValue(Hash, CBits);
  codec::hashValue(Hash, Gen.RepCutoff);
  codec::hashValue(Hash, Gen.MaxPairsPerAnchor);

  // The seed spec drives both the blacklist filter and the pins. entries()
  // iterates an unordered_map, so sort for a process-independent hash.
  std::vector<std::pair<std::string, uint64_t>> Entries;
  Entries.reserve(Seed.Spec.entries().size());
  for (const auto &[Rep, Mask] : Seed.Spec.entries())
    Entries.emplace_back(Rep, Mask);
  std::sort(Entries.begin(), Entries.end());
  codec::hashValue(Hash, Entries.size());
  for (const auto &[Rep, Mask] : Entries) {
    codec::hashChunk(Hash, Rep);
    codec::hashValue(Hash, Mask);
  }
  codec::hashValue(Hash, Seed.Blacklist.patterns().size());
  for (const std::string &Pattern : Seed.Blacklist.patterns())
    codec::hashChunk(Hash, Pattern);

  // The graph key covers the sources and every frontend knob, so a source
  // touch or build-option flip invalidates the shard too.
  codec::hashValue(Hash, GraphKey.Hash);

  return CacheKey{Hash};
}

ShardCache::ShardCache(std::string Dir)
    : CodecStore(std::move(Dir), {".scs", "shard", "shard cache"}) {}
