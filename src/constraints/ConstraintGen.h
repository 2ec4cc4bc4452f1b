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
/// One implementation serves both ways to build the system. A per-file
/// traversal records the file's anchors (ShardFile, ConstraintShard.h):
/// each sanitizer with the sources upstream and the sinks downstream, each
/// source with the sinks it reaches and the sanitizers between. One emitter
/// turns anchors into rows. generateConstraints() traverses only events
/// with surviving options and emits at once; the incremental path
/// (ConstraintShard.h) stores unfiltered anchors per project and emits them
/// later under the current corpus state.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_CONSTRAINTGEN_H
#define SELDON_CONSTRAINTS_CONSTRAINTGEN_H

#include "constraints/ConstraintSystem.h"
#include "propgraph/PropagationGraph.h"
#include "propgraph/RepTable.h"
#include "spec/SeedSpec.h"

#include <vector>

namespace seldon {

class Deadline;
class ThreadPool;

namespace constraints {

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
/// \p Reps must already have counted occurrences over \p Graph.
/// Blacklisted representation options never receive variables; events
/// whose every option is blacklisted or infrequent are ignored (§4.3).
///
/// When \p Pool is non-null the expensive stages fan out over it: the
/// per-event backoff filtering (disjoint writes) and the per-file template
/// extraction, each file into a private block over its own variable table.
/// The blocks merge in file order, which reproduces the ids of a serial
/// run, so the system — ids, constraint order, coefficients — is the same
/// at any thread count.
///
/// \p StopAt (may be null) is polled at every per-file shard boundary.
/// Constraint generation is all-or-nothing — a partial system would change
/// the learned scores silently — so an expired deadline throws
/// DeadlineError rather than returning a truncated system.
ConstraintSystem generateConstraints(const propgraph::PropagationGraph &Graph,
                                     const propgraph::RepTable &Reps,
                                     const spec::SeedSpec &Seed,
                                     const GenOptions &Opts = GenOptions(),
                                     ThreadPool *Pool = nullptr,
                                     const Deadline *StopAt = nullptr);

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_CONSTRAINTGEN_H
