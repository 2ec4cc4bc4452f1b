//===- constraints/ConstraintShard.h - Per-project constraints ---*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A project's Fig. 4 anchors, made persistable. A ConstraintShard holds
/// what the Fig. 4 traversal (ConstraintGen.h) computes for each of a
/// project's files — which sanitizer sees which sources upstream and sinks
/// downstream (Fig. 4a/4b), which source reaches which sink through which
/// mid-sanitizers (Fig. 4c) — over file-local event ids (an event's index
/// among its file's events, in id order), plus the file's event count.
/// Nothing else: the events' representation options stay in the graph, and
/// generation reads them there.
///
/// A shard is *filter-free*: the §4.3 frequency cutoff and the §7.2
/// blacklist depend on corpus-global occurrence counts and on the seed
/// spec, so applying them at extraction time would invalidate every shard
/// whenever any other project changes. Instead the traversal runs without
/// the candidate filter, and generateConstraints() hands a cached file's
/// anchors to the same emitter that emits a traversed file's, over the
/// same surviving options. An event left without options drops out of
/// every anchor, exactly as the traversal's candidate filter drops it, so
/// a system built from cached anchors is the directly generated one byte
/// for byte: same variable ids, same constraint order, same coefficients.
///
/// Cached ids index a file's option spans directly, so a shard may only be
/// used on the graph slice it fits (shardFits()): one block per file, each
/// with its file's event count. The codec bounds every id by its file's
/// count; the count is checked against the graph before use.
///
/// The trade-off: shards store anchor pair lists uncapped (the
/// MaxPairsPerAnchor cap counts only *surviving* pairs, known only at
/// emission), so a pathologically dense file costs shard bytes
/// proportional to its uncapped pair count.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_CONSTRAINTSHARD_H
#define SELDON_CONSTRAINTS_CONSTRAINTSHARD_H

#include "propgraph/PropagationGraph.h"

#include <cstdint>
#include <vector>

namespace seldon {
namespace constraints {

/// Index of an event among its file's events, in id order.
using ShardEventId = uint32_t;

/// One sanitizer anchor (Fig. 4a/4b): the sources flowing into it and the
/// sinks reachable from it, each in candidate (event id) order. Omitted
/// when both lists are empty.
struct ShardSanAnchor {
  ShardEventId San = 0;
  std::vector<ShardEventId> SourcesBefore;
  std::vector<ShardEventId> SinksAfter;
};

/// One (source, sink) pair of a source anchor (Fig. 4c) with the
/// mid-sanitizers lying between them (reachability already resolved).
struct ShardSrcPair {
  ShardEventId Snk = 0;
  std::vector<ShardEventId> Mids;
};

/// One source anchor (Fig. 4c): every sink it reaches (Snk != Src, in
/// candidate order), uncapped. Omitted when it reaches no sink.
struct ShardSrcAnchor {
  ShardEventId Src = 0;
  std::vector<ShardSrcPair> Pairs;
};

/// The anchors of one file, as the Fig. 4 traversal records them: all
/// sanitizer anchors (Fig. 4a/4b), then all source anchors (Fig. 4c).
struct ShardFile {
  /// The file's event count; every id above is below it.
  uint32_t NumEvents = 0;
  std::vector<ShardSanAnchor> SanAnchors;
  std::vector<ShardSrcAnchor> SrcAnchors;
};

/// The persistable per-project slice of constraint generation: one block
/// per project file (empty blocks included, so blocks align with the
/// project's file list).
struct ConstraintShard {
  std::vector<ShardFile> Files;

  /// Total anchors across all files (shard-size diagnostics).
  size_t numAnchors() const;
};

/// Extracts the shard of the files [\p FileBegin, \p FileEnd) of \p Graph
/// — a project's file range within the global graph, or (0, files().size())
/// for a standalone per-project graph. Runs the Fig. 4 traversal on each
/// file without the candidate filter, so the result depends only on the
/// graph slice, never on the keep verdicts, seed, or GenOptions. \p Graph's
/// events must be in file order, as every graph the builder, append() and
/// the graph codec produce is; extraction then touches only the slice's
/// events. Deterministic (serial per project; parallelism comes from
/// extracting different projects' shards concurrently).
ConstraintShard extractShard(const propgraph::PropagationGraph &Graph,
                             uint32_t FileBegin, uint32_t FileEnd);

/// True when \p Shard may stand in for the traversal of the files
/// [\p FileBegin, \p FileEnd) of \p Graph: it has one block per file, and
/// each block's event count is its file's. \p Graph's events must be in
/// file order, as for extractShard().
bool shardFits(const ConstraintShard &Shard,
               const propgraph::PropagationGraph &Graph, uint32_t FileBegin,
               uint32_t FileEnd);

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_CONSTRAINTSHARD_H
