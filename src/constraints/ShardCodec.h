//===- constraints/ShardCodec.h - Binary shard serialization -----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact, versioned, checksummed binary serialization of per-project
/// constraint shards (ConstraintShard.h) — the persistence format behind
/// cache::ShardCache, in the GraphCodec style.
///
/// The payload travels in the shared frame of support/BinaryCodec.h
/// (magic "SCSH", version ShardCodecVersion). Payload layout, all
/// integers varint-encoded unless noted:
///
///     strings  count, then per string: length-prefixed bytes
///     events   count, then per event: rep count (>= 1), rep string ids
///              (most to least specific)
///     files    count, then per file:
///       san anchors  count, then per anchor: san event id,
///                    |sources before| + ids, |sinks after| + ids
///                    (at least one of the two lists non-empty)
///       src anchors  count, then per anchor: src event id,
///                    pair count (>= 1), per pair: sink event id,
///                    mid count + mid event ids
///
/// The encoding is *canonical*: encode(decode(encode(S))) == encode(S)
/// byte for byte, so a cache-hit shard replays into exactly the same
/// constraint system as the freshly extracted one.
///
/// Decoding is *strict* in the GraphCodec sense: any truncation, bit flip,
/// version skew, or out-of-range reference yields a descriptive
/// io::IOResult error with an empty shard — never a partial one.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_SHARDCODEC_H
#define SELDON_CONSTRAINTS_SHARDCODEC_H

#include "constraints/ConstraintShard.h"
#include "support/IOResult.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace seldon {
namespace constraints {

/// Current shard format version. Bump on any layout change; the decoder
/// rejects every other version (the shard cache then rebuilds).
inline constexpr uint32_t ShardCodecVersion = 1;

/// Serializes \p Shard into the format described above.
std::string encodeShard(const ConstraintShard &Shard);

/// Strictly parses \p Bytes. On failure the result's Error describes the
/// first problem (including the byte offset where parsing stopped) and the
/// Value is an empty shard.
io::IOResult<ConstraintShard> decodeShard(std::string_view Bytes);

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_SHARDCODEC_H
