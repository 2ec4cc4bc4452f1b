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
  /// anchor, guarding against pathological dense files.
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
/// extraction, which is sharded by file into private constraint buffers.
/// Determinism is preserved by construction: variables are pre-created in
/// event order before any extraction runs, and the per-file buffers are
/// concatenated in file order, so the resulting system — ids, constraint
/// order, coefficients — is identical to the serial one. \p
/// ShardSecondsOut (may be null) receives per-worker extraction wall time.
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
                                     std::vector<double> *ShardSecondsOut =
                                         nullptr,
                                     const Deadline *StopAt = nullptr);

/// The pre-extraction scaffolding shared by generateConstraints and the
/// incremental composeConstraints (ConstraintShard.h): the per-event
/// surviving backoff options (frequency cutoff + blacklist), the candidate
/// statistics, and the seed pins — which intern the corpus's first
/// variables, so pins must be created before any constraint extraction
/// replays. Returns a system with no constraints yet.
ConstraintSystem prepareSystem(const propgraph::PropagationGraph &Graph,
                               const propgraph::RepTable &Reps,
                               const spec::SeedSpec &Seed,
                               const GenOptions &Opts = GenOptions(),
                               ThreadPool *Pool = nullptr);

/// The constraints one unit of work (a file during generation, a
/// project's shard during composition) extracted on its own, over a
/// block-local variable table whose ids follow first use within the
/// block.
struct ConstraintBlock {
  VarTable Vars;
  std::vector<solver::LinearConstraint> Constraints;
};

/// The ordered merge behind generateConstraints and composeConstraints:
/// walks \p Blocks in order, replays each local variable table into
/// Sys.Vars, remaps the block's constraints to the global ids and appends
/// them, freeing each block as it goes. Local ids are in first-use order,
/// so this reproduces the exact ids a serial run over the same units
/// assigns — including variables created for sums that end up in no
/// constraint.
void mergeBlocks(std::vector<ConstraintBlock> &Blocks, ConstraintSystem &Sys);

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_CONSTRAINTGEN_H
