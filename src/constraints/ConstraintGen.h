//===- constraints/ConstraintGen.h - Fig. 4 constraint extraction -*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instantiates the three information-flow constraint templates of paper
/// Fig. 4 over a (global) propagation graph via BFS (§4, "Algorithmic
/// Collection of Constraints"):
///
///   (a) san(v) + snk(v')  ≤  Σ src(u) over u flowing into v        + C
///       for every sanitizer candidate v reaching a sink candidate v'
///   (b) src(s) + san(v)   ≤  Σ snk(t) over t reachable from v      + C
///       for every source candidate s flowing into sanitizer candidate v
///   (c) src(s) + snk(t)   ≤  Σ san(m) over m between s and t       + C
///       for every source candidate s reaching a sink candidate t
///
/// Every variable occurrence is replaced by the average of the event's
/// surviving backoff options (§4.3), and seed labels pin the corresponding
/// fully-qualified variables (§4.1).
///
/// One implementation builds every system. A per-file traversal records
/// the file's anchors (ShardFile, ConstraintShard.h): each sanitizer with
/// the sources upstream and the sinks downstream, each source with the
/// sinks it reaches and the sanitizers between. One emitter turns anchors
/// into rows. generateConstraints() gets each file's anchors either from
/// the traversal, filtered to events with surviving options, or from a
/// shard cached by an earlier run (unfiltered, ConstraintShard.h), and
/// emits both the same way under the current corpus state.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_CONSTRAINTGEN_H
#define SELDON_CONSTRAINTS_CONSTRAINTGEN_H

#include "constraints/ConstraintSystem.h"
#include "propgraph/PropagationGraph.h"
#include "propgraph/RepTable.h"
#include "spec/SeedSpec.h"

#include <span>

namespace seldon {

class Deadline;
class ThreadPool;

namespace constraints {

struct ShardFile;

/// Generation knobs.
struct GenOptions {
  /// Implication slack constant (paper §4.2: C = 0.75; C = 1 is the exact
  /// boolean relaxation, used by the ablation bench).
  double C = 0.75;
  /// Representation frequency cutoff (§4.3: 5 occurrences).
  size_t RepCutoff = 5;
  /// Safety cap on (pair) constraints extracted per source/sanitizer
  /// anchor, guarding against pathological dense files. It counts only
  /// pairs whose events both survive the cutoff and the blacklist.
  size_t MaxPairsPerAnchor = 4096;
};

/// Extracts the full constraint system from \p Graph.
///
/// \p Graph must be the graph \p Reps counted, or its collapseByRep(): a
/// graph with another string table throws std::invalid_argument.
/// Blacklisted representation options never receive variables; events
/// whose every option is blacklisted or infrequent are ignored (§4.3).
///
/// \p Cached, when not empty, holds one entry per file of \p Graph: a
/// file with a non-null entry emits those anchors instead of traversing
/// its events. Each entry's NumEvents must equal its file's event count
/// (shardFits() checks a shard against its slice), so its ids index the
/// file's events; the system is the same as without it.
///
/// When \p Pool is non-null the expensive stages fan out over it: the
/// per-file template extraction, each file into a private block over its
/// own variable table. The blocks merge in file order, which reproduces
/// the ids of a serial run, so the system — ids, constraint order,
/// coefficients — is the same at any thread count.
///
/// \p StopAt (may be null) is polled at every per-file shard boundary.
/// Constraint generation is all-or-nothing — a partial system would change
/// the learned scores silently — so an expired deadline throws
/// DeadlineError rather than returning a truncated system.
ConstraintSystem
generateConstraints(const propgraph::PropagationGraph &Graph,
                    const propgraph::RepTable &Reps,
                    const spec::SeedSpec &Seed,
                    const GenOptions &Opts = GenOptions(),
                    ThreadPool *Pool = nullptr,
                    const Deadline *StopAt = nullptr,
                    std::span<const ShardFile *const> Cached = {});

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_CONSTRAINTGEN_H
