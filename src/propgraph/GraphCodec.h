//===- propgraph/GraphCodec.h - Binary graph serialization -------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact, versioned, checksummed binary serialization of propagation
/// graphs — the persistence format behind cache::GraphCache. The frontend
/// of §5 is deterministic per project, so a once-built graph can be stored
/// and adopted by later runs without re-parsing.
///
/// The payload travels in the shared frame of support/BinaryCodec.h
/// (magic "SPGC", version GraphCodecVersion). Payload layout, all
/// integers varint-encoded unless noted:
///
///     files    count, then per file: length-prefixed path
///     events   count, then per event: kind (u8), candidate mask (u8),
///              file index, line, column, rep count, length-prefixed reps
///              (most to least specific)
///     edges    count, then per edge: from id, to id — emitted in
///              adjacency order (by source id, then insertion order)
///
/// The encoding is *canonical*: encode(decode(encode(G))) == encode(G)
/// byte for byte, and a decoded graph is structurally identical to the
/// original (same event ids, representations, adjacency order), so every
/// downstream stage — representation counting, constraint generation,
/// solving — produces bit-identical output from a decoded graph.
///
/// Decoding is *strict* in the SpecIO sense: any truncation, bit flip,
/// version skew, or out-of-range reference yields a descriptive
/// io::IOResult error with a default-constructed (empty) graph — never a
/// partially-populated one.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PROPGRAPH_GRAPHCODEC_H
#define SELDON_PROPGRAPH_GRAPHCODEC_H

#include "propgraph/PropagationGraph.h"
#include "support/IOResult.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace seldon {
namespace propgraph {

/// Current serialization format version. Bump on any layout change; the
/// decoder rejects every other version (the cache then rebuilds).
inline constexpr uint32_t GraphCodecVersion = 1;

/// Serializes \p Graph into the format described above.
std::string encodeGraph(const PropagationGraph &Graph);

/// Strictly parses \p Bytes. On failure the result's Error describes the
/// first problem (including the byte offset where parsing stopped) and the
/// Value is an empty graph.
io::IOResult<PropagationGraph> decodeGraph(std::string_view Bytes);

} // namespace propgraph
} // namespace seldon

#endif // SELDON_PROPGRAPH_GRAPHCODEC_H
