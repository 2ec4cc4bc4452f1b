//===- constraints/Explain.h - The var->rows index ---------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Finds the rows that explain a score. The paper's Fig. 1 workflow has an
/// expert examine the learned specifications, and the natural question is
/// which information-flow constraints pushed a score up: the rows that
/// mention the (representation, role) variable. service::queryRep walks
/// them and renders the answer.
///
/// A one-shot caller (`seldon explain`) scans every row once. A long-lived
/// one (`seldond`) builds a RowIndex per served system, so each answer
/// touches only the rows of its own variable. Both walks visit the same
/// rows in the same order.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_EXPLAIN_H
#define SELDON_CONSTRAINTS_EXPLAIN_H

#include "constraints/ConstraintSystem.h"

#include <cstdint>
#include <span>
#include <vector>

namespace seldon {
namespace constraints {

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

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_EXPLAIN_H
