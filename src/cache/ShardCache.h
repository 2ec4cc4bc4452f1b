//===- cache/ShardCache.h - Persistent constraint-shard cache ----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An on-disk cache of per-project constraint shards
/// (constraints/ConstraintShard.h), next to GraphCache: where the graph
/// cache makes parse+build O(delta), the shard cache keeps each project's
/// Fig. 4 anchors, so re-learning after touching one project emits every
/// other project's cached anchors instead of redoing its per-file BFS
/// sweeps. A shard holds anchors over file-local event ids and each file's
/// event count, nothing the graph already holds.
///
/// Keying / invalidation: an entry is addressed by a 64-bit FNV-1a content
/// hash of the shard codec version, every constraints::GenOptions field,
/// the full seed spec (entries sorted by representation, plus the blacklist
/// patterns in order), and the project's *graph* cache key — which already
/// covers the sources and every frontend knob. Any change to any input of
/// constraint generation produces a different key. (Shard *content* only
/// depends on the graph; the options and seed participate conservatively,
/// at the cost of spurious misses when they change.) A loaded shard is
/// still checked against the graph slice it is used on (shardFits());
/// infer::Session treats a shard that does not fit as a miss.
///
/// Storage, failure discipline and concurrency are cache/EntryStore.h's,
/// as for GraphCache. A load never yields a partial shard.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CACHE_SHARDCACHE_H
#define SELDON_CACHE_SHARDCACHE_H

#include "cache/GraphCache.h"
#include "constraints/ConstraintGen.h"
#include "constraints/ConstraintShard.h"
#include "constraints/ShardCodec.h"

#include <string>

namespace seldon {
namespace cache {

/// Computes the shard cache key for the project identified by \p GraphKey
/// under generation options \p Gen and seed \p Seed. Deterministic across
/// processes (seed entries are hashed in sorted order).
CacheKey projectShardKey(const CacheKey &GraphKey,
                         const constraints::GenOptions &Gen,
                         const spec::SeedSpec &Seed);

/// The on-disk shard store: "<key>.scs" entries, so both caches can share
/// a directory without colliding. Same lifecycle and degradation contract
/// as GraphCache.
class ShardCache
    : public CodecStore<constraints::ConstraintShard,
                        constraints::encodeShard, constraints::decodeShard> {
public:
  explicit ShardCache(std::string Dir);
};

} // namespace cache
} // namespace seldon

#endif // SELDON_CACHE_SHARDCACHE_H
