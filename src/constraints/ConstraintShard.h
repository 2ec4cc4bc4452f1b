//===- constraints/ConstraintShard.h - Per-project constraints ---*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-project slice of constraint generation, made persistable. A
/// ConstraintShard holds what the Fig. 4 traversal (ConstraintGen.h)
/// recorded for each of a project's files — which sanitizer sees which
/// sources upstream and sinks downstream (Fig. 4a/4b), which source
/// reaches which sink through which mid-sanitizers (Fig. 4c) — with
/// representation names kept symbolic (strings, not corpus RepIds).
///
/// A shard is *filter-free*: the §4.3 frequency cutoff and the §7.2
/// blacklist depend on corpus-global occurrence counts and on the seed
/// spec, so applying them at extraction time would invalidate every shard
/// whenever any other project changes. Instead the shard stores each
/// referenced event's full backoff option list, and composeConstraints()
/// resolves those lists against the *current* global RepTable, seed, and
/// GenOptions, then hands the anchors to the same emitter direct
/// generation uses. An event left without options drops out of every
/// anchor, exactly as the direct path's candidate filter drops it before
/// traversal, so composing all project shards in corpus order reproduces
/// generateConstraints() byte for byte: same variable ids, same constraint
/// order, same coefficients.
///
/// The trade-off: shards store anchor pair lists uncapped (the
/// MaxPairsPerAnchor cap counts only *surviving* pairs, known only at
/// emission), so a pathologically dense file costs shard bytes
/// proportional to its uncapped pair count.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_CONSTRAINTSHARD_H
#define SELDON_CONSTRAINTS_CONSTRAINTSHARD_H

#include "constraints/ConstraintGen.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seldon {

class Deadline;
class ThreadPool;

namespace constraints {

/// Index of an interned representation string within one shard.
using ShardStrId = uint32_t;
/// Index of an event within one shard; during direct generation, within
/// one file's events.
using ShardEventId = uint32_t;

/// One event referenced by a shard: its full representation option list
/// (most to least specific), as indices into ConstraintShard::Strings.
struct ShardEvent {
  std::vector<ShardStrId> Reps;
};

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
  std::vector<ShardSanAnchor> SanAnchors;
  std::vector<ShardSrcAnchor> SrcAnchors;
};

/// The persistable per-project slice of constraint generation. Strings and
/// events are interned shard-locally in first-reference order; Files holds
/// one block per project file (empty blocks included, so blocks align with
/// the project's file list).
struct ConstraintShard {
  std::vector<std::string> Strings;
  std::vector<ShardEvent> Events;
  std::vector<ShardFile> Files;

  /// Total anchors across all files (shard-size diagnostics).
  size_t numAnchors() const;
};

/// Extracts the shard of the files [\p FileBegin, \p FileEnd) of \p Graph
/// — a project's file range within the global graph, or (0, files().size())
/// for a standalone per-project graph. Runs the Fig. 4 traversal on each
/// file without the candidate filter, so the result depends only on the
/// graph slice, never on RepTable counts, seed, or GenOptions. \p Graph's
/// events must be in file order, as every graph the builder, append() and
/// the graph codec produce is; extraction then touches only the slice's
/// events. Deterministic (serial per project; parallelism comes from
/// extracting different projects' shards concurrently).
ConstraintShard extractShard(const propgraph::PropagationGraph &Graph,
                             uint32_t FileBegin, uint32_t FileEnd);

/// Composes per-project \p Shards (in corpus order; null entries are
/// skipped) into a full constraint system over the global \p Graph. The
/// scaffolding is generateConstraints()'s (event filter, statistics, seed
/// pins); then every shard resolves its option strings under the current
/// corpus state — §4.3 cutoff against the global counts in \p Reps, seed
/// blacklist — and emits its rows into a private block, fanned out over
/// \p Pool; the blocks merge in corpus order, as generation's per-file
/// blocks do. The result is byte-identical to generateConstraints(Graph,
/// ...) at any thread count, provided the shards were extracted from the
/// same graph's project slices. \p StopAt (may be null) is polled at
/// every shard boundary; expiry throws DeadlineError — composition is
/// all-or-nothing, like generation.
ConstraintSystem
composeConstraints(const propgraph::PropagationGraph &Graph,
                   const propgraph::RepTable &Reps,
                   const spec::SeedSpec &Seed,
                   const std::vector<const ConstraintShard *> &Shards,
                   const GenOptions &Opts = GenOptions(),
                   ThreadPool *Pool = nullptr,
                   const Deadline *StopAt = nullptr);

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_CONSTRAINTSHARD_H
