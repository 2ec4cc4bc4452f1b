//===- constraints/Feedback.h - Feedback-weighted inference ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// InspectJS-style feedback weighting (Dutta et al.): a user accepts or
/// rejects inferred specifications, and the verdicts reweight the
/// constraint system before the next solve. Each verdict becomes a
/// weighted evidence row over the (representation, role) score variable:
///
///   accepted (rep, role), weight w:   {} <= w*x + (-w)   — hinge w*(1-x)
///   rejected (rep, role), weight w:   w*x <= {} + 0      — hinge w*x
///
/// Both are ordinary rows, appended to the system's ConstraintRows, so
/// feedback composes with the compiled kernel at every tier
/// byte-identically, an empty feedback set adds no rows (the passive
/// path, byte for byte), and the effect is provably monotone: a reject
/// row only ever adds downward subgradient (+w while x > 0) on its
/// variable, an accept row only ever adds upward subgradient (-w while
/// x < 1).
///
/// Similar representations share evidence: two representations are
/// similar when they appear in the same event's surviving backoff set
/// (shared backoff prefixes: an event's options that the system's keep
/// verdicts keep). Similarity is taken over the events of the corpus graph
/// the RepTable counted, even for a system learned over its collapsed
/// graph. A deterministic propagation pass forwards each direct verdict to
/// its co-backoff representations at a decayed weight.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_FEEDBACK_H
#define SELDON_CONSTRAINTS_FEEDBACK_H

#include "constraints/ConstraintSystem.h"

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace seldon {
namespace constraints {

/// One accepted or rejected specification.
struct FeedbackEntry {
  std::string Rep;
  propgraph::Role R = propgraph::Role::Source;
  bool Accepted = false;
};

/// An accumulated set of user verdicts. Last verdict wins on repeats, and
/// entries() iterates in (rep, role) order, so the applied rows — and
/// therefore the learned spec — are independent of insertion order.
class FeedbackSet {
public:
  void accept(const std::string &Rep, propgraph::Role R) {
    Verdicts[{Rep, static_cast<int>(R)}] = true;
  }
  void reject(const std::string &Rep, propgraph::Role R) {
    Verdicts[{Rep, static_cast<int>(R)}] = false;
  }

  bool empty() const { return Verdicts.empty(); }
  size_t size() const { return Verdicts.size(); }

  /// +1 accepted, -1 rejected, 0 no verdict.
  int verdict(const std::string &Rep, propgraph::Role R) const {
    auto It = Verdicts.find({Rep, static_cast<int>(R)});
    return It == Verdicts.end() ? 0 : (It->second ? 1 : -1);
  }

  /// All verdicts in deterministic (rep, role) order.
  std::vector<FeedbackEntry> entries() const;

private:
  std::map<std::pair<std::string, int>, bool> Verdicts;
};

/// Weighting knobs of one feedback application.
struct FeedbackOptions {
  /// Evidence-row weight of a direct accept / reject verdict.
  double AcceptWeight = 1.0;
  double RejectWeight = 1.0;
  /// Weight factor applied when a verdict propagates to a co-backoff
  /// representation. 0 disables propagation entirely.
  double SimilarityDecay = 0.5;
};

/// What applyFeedback did (for responses, metrics, and tests).
struct FeedbackStats {
  /// Verdicts whose (rep, role) has a score variable in the system.
  size_t Matched = 0;
  /// Verdicts naming a representation the system never scored.
  size_t Unmatched = 0;
  /// Direct evidence rows appended.
  size_t EvidenceRows = 0;
  /// Similarity-propagated evidence rows appended.
  size_t PropagatedRows = 0;
};

/// Appends the evidence rows of \p Set to \p Sys, which was generated
/// against \p Reps (its keep verdicts index Reps's ids): direct rows
/// first, in (rep, role) order, then propagated rows in (rep, role) order.
/// A propagated representation takes the strongest decayed accept and/or
/// reject evidence over all events it shares with a directly-judged
/// representation (max over events — order-independent); representations
/// with a direct verdict never receive propagated rows. Deterministic:
/// the same set and options always append the same rows in the same
/// order.
FeedbackStats applyFeedback(ConstraintSystem &Sys,
                            const propgraph::RepTable &Reps,
                            const FeedbackSet &Set,
                            const FeedbackOptions &Opts = FeedbackOptions());

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_FEEDBACK_H
