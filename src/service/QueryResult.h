//===- service/QueryResult.h - Point-query results ---------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The answer to the service's point query: "what role does
/// representation R have, and which constraints support it?". The paper's
/// Fig. 1 workflow has an expert examine each learned specification; this
/// is the evidence they weigh: every constraint mentioning the (rep, role)
/// variable, with its residual under the solved assignment.
///
/// One struct, one walk, two renderers. queryRep visits the variable's
/// rows once and writes each row's text once, into one buffer the answer
/// owns. The JSON renderer is the `seldond` wire format *and* the
/// `seldon explain --json` output; the text renderer is the human-readable
/// `seldon explain` table. Both copy the row texts out of that buffer.
/// Because the CLI and the daemon answer through the same walk and the
/// same renderers, a warm daemon's `query` answer is byte-identical to a
/// cold CLI run on the same corpus, and the two front-ends cannot drift.
/// The daemon passes the served state's constraints::RowIndex, so its
/// answer costs O(rows of the queried variable); the CLI scans once. No
/// number either renderer prints depends on the host locale.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SERVICE_QUERYRESULT_H
#define SELDON_SERVICE_QUERYRESULT_H

#include "constraints/ConstraintSystem.h"
#include "constraints/Explain.h"

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace service {

/// One constraint supporting (or capping) a queried score. Its rendered
/// `lhs <= rhs + C` text is a slice of QueryResult::Text.
struct QueryConstraint {
  /// Where this row's text ends in QueryResult::Text; it begins where the
  /// previous row's ends.
  size_t TextEnd = 0;
  /// L - R - C under the solved assignment (> 0 means still violated).
  double Residual = 0.0;
  /// True when the queried variable sits on the left-hand side (the
  /// constraint caps the score); false when it sits only on the right
  /// (the constraint demands it).
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
  /// One entry per row mentioning the variable, in row order.
  std::vector<QueryConstraint> Constraints;
  /// The rows' texts, back to back. Variables print as `rep^role`,
  /// non-unit coefficients as a `0.5*` prefix; coefficients print as
  /// printf's `%.3g` and C as `%.2f` would in the C locale.
  std::string Text;
  /// True when some byte of Text must be escaped in JSON. Only a rep
  /// string can hold one; numbers and operators never do.
  bool TextNeedsEscape = false;

  /// The text of constraint \p I.
  std::string_view text(size_t I) const {
    size_t Begin = I ? Constraints[I - 1].TextEnd : 0;
    return std::string_view(Text).substr(Begin,
                                         Constraints[I].TextEnd - Begin);
  }
};

/// Parses a wire/CLI role name ("source", "sanitizer", "sink") into
/// \p Out. Returns false for anything else.
bool roleFromName(const std::string &Name, propgraph::Role &Out);

/// Answers the point query against a solved system: looks up
/// (\p Rep, \p Role) and, in one walk over the rows mentioning its
/// variable, renders each row into the answer's Text and computes its
/// residual under \p X (the solved assignment, indexed by the system's
/// variable ids; empty \p X gives residuals of 0). With \p Index, which
/// must be built from \p System, only the variable's own rows are
/// visited; without it every row is scanned. The answer is the same
/// either way.
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
