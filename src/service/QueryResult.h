//===- service/QueryResult.h - Point-query results ---------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured answer to the service's point query: "what role does
/// representation R have, and which constraints support it?". One struct,
/// two renderers — the JSON renderer is the `seldond` wire format *and*
/// the `seldon explain --json` output, and the text renderer is the
/// human-readable `seldon explain` table. Because both the CLI and the
/// daemon render the same struct through the same functions, a warm
/// daemon's `query` answer is byte-identical to a cold CLI run on the
/// same corpus, and the two front-ends cannot drift. The daemon passes the
/// served state's constraints::RowIndex, so its answer costs O(rows of the
/// queried variable); the CLI scans once. Each renderer appends into one
/// string, and no number it prints depends on the host locale.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SERVICE_QUERYRESULT_H
#define SELDON_SERVICE_QUERYRESULT_H

#include "constraints/ConstraintSystem.h"
#include "constraints/Explain.h"

#include <string>
#include <vector>

namespace seldon {
namespace service {

/// One constraint supporting (or capping) a queried score.
struct QueryConstraint {
  /// Rendered `lhs <= rhs + C` text (constraints::renderConstraint).
  std::string Text;
  /// L - R - C under the solved assignment (> 0 means still violated).
  double Residual = 0.0;
  /// True when the queried variable sits on the left-hand side (the
  /// constraint caps the score); false when it sits on the right (the
  /// constraint demands it).
  bool Caps = false;
};

/// Everything known about one (representation, role) score.
struct QueryResult {
  std::string Rep;
  propgraph::Role Role = propgraph::Role::Source;
  /// False when the pair has no variable (blacklisted, below the
  /// frequency cutoff, or never a candidate); all other fields are then
  /// zero/empty.
  bool Found = false;
  double Score = 0.0;
  bool Pinned = false;
  double PinnedValue = 0.0;
  std::vector<QueryConstraint> Constraints;
};

/// Parses a wire/CLI role name ("source", "sanitizer", "sink") into
/// \p Out. Returns false for anything else.
bool roleFromName(const std::string &Name, propgraph::Role &Out);

/// Answers the point query against a solved system: looks up
/// (\p Rep, \p Role), renders every constraint mentioning its variable,
/// and computes residuals under \p X (the solved assignment, indexed by
/// the system's variable ids). \p Index, when given, must be built from
/// \p System; it changes the cost, not the answer
/// (constraints::explainRep).
QueryResult queryRep(const constraints::ConstraintSystem &System,
                     const propgraph::RepTable &Reps, const std::string &Rep,
                     propgraph::Role Role, const std::vector<double> &X,
                     const constraints::RowIndex *Index = nullptr);

/// The machine-readable rendering (single line, no trailing newline):
///
///   {"rep":"...","role":"sanitizer","found":true,"score":0.750000,
///    "pinned":true,"pinned_value":1.000000,
///    "constraints":[{"kind":"demands","residual":-0.250000,"text":"..."}]}
///
/// Scores and residuals print as %.6f does in the C locale (the same
/// precision as spec::writeLearnedSpec), so the output is byte-stable
/// across runs and hosts.
std::string renderQueryJson(const QueryResult &Q);

/// The human-readable rendering (the classic `seldon explain` output):
///
///   mid.filter() as sanitizer: score 0.457
///   3 constraint(s) mention it:
///     [demands it, residual -0.123] ... <= ... + 0.75
std::string renderQueryText(const QueryResult &Q);

} // namespace service
} // namespace seldon

#endif // SELDON_SERVICE_QUERYRESULT_H
