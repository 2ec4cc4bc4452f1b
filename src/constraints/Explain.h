//===- constraints/Explain.h - Constraint-level explanations -----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explains *why* a representation received its score: the paper's Fig. 1
/// workflow has an expert examine the learned specifications, and the
/// natural question is which information-flow constraints pushed a score
/// up. This renders the constraints mentioning a (representation, role)
/// variable together with their residuals under the solved assignment.
///
/// A one-shot caller (`seldon explain`) scans every row once. A long-lived
/// one (`seldond`) builds a RowIndex per served system, so each
/// explanation touches only the rows of its own variable. Both paths list
/// the same rows in the same order and render them through the same
/// locale-independent renderer, so their output is byte-identical.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_EXPLAIN_H
#define SELDON_CONSTRAINTS_EXPLAIN_H

#include "constraints/ConstraintSystem.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace seldon {
namespace constraints {

/// Renders one constraint as `lhs <= rhs + C`, with variables shown as
/// `rep^role` and non-unit coefficients prefixed (`0.5*rep^role`).
/// Coefficients print as printf's `%.3g` and C as `%.2f` would in the C
/// locale, whatever the host locale.
std::string renderConstraint(const ConstraintSystem &Sys,
                             const propgraph::RepTable &Reps,
                             const solver::LinearConstraint &C);

/// The rows of every variable, in CSR form over Sys.Constraints:
/// Rows[Begin[V] .. Begin[V + 1]) are the ascending ids of the rows that
/// mention V. A row is listed once per variable, even when the variable
/// repeats in the row or sits on both of its sides.
struct RowIndex {
  std::vector<uint32_t> Begin;
  std::vector<uint32_t> Rows;

  std::span<const uint32_t> rowsOf(VarId V) const {
    return {Rows.data() + Begin[V], Rows.data() + Begin[V + 1]};
  }
};

/// Indexes \p Sys.Constraints with one counting pass and one fill pass.
RowIndex buildRowIndex(const ConstraintSystem &Sys);

/// One constraint's appearance in an explanation.
struct ExplainedConstraint {
  std::string Text;
  /// L - R - C under the solution (> 0 means still violated).
  double Residual = 0.0;
  /// True when the explained variable sits on the left-hand side (the
  /// constraint *caps* it); false for the right-hand side (the constraint
  /// *demands* it).
  bool OnLhs = false;
};

/// Everything known about one (representation, role) variable.
struct Explanation {
  bool Found = false;
  double Score = 0.0;
  bool Pinned = false;
  double PinnedValue = 0.0;
  std::vector<ExplainedConstraint> Constraints;
};

/// Explains (\p Rep, \p R) under the solved assignment \p X (indexed by
/// the system's variable ids). Returns Found = false when the pair has no
/// variable (blacklisted, below cutoff, or never a candidate). With
/// \p Index (built from \p Sys) only the variable's own rows are visited;
/// without it every row is scanned. The result is the same either way.
Explanation explainRep(const ConstraintSystem &Sys,
                       const propgraph::RepTable &Reps,
                       const std::string &Rep, propgraph::Role R,
                       const std::vector<double> &X,
                       const RowIndex *Index = nullptr);

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_EXPLAIN_H
