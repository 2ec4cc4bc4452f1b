//===- active/Uncertainty.h - Uncertainty-ranked candidates ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The query-selection half of the active-learning loop: rank every
/// unpinned, not-yet-queried (representation, role) score variable by how
/// close its learned score sits to the report threshold — the variables
/// whose role decision the next oracle answer is most likely to flip.
/// Ties break deterministically by representation name, then role, so the
/// proposed query order is identical across runs, job counts, and kernel
/// tiers (which are themselves byte-identical).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_ACTIVE_UNCERTAINTY_H
#define SELDON_ACTIVE_UNCERTAINTY_H

#include "constraints/ConstraintSystem.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seldon {
namespace active {

/// One proposed query.
struct Candidate {
  constraints::VarId Var = 0;
  std::string Rep;
  propgraph::Role R = propgraph::Role::Source;
  double Score = 0.0;
  /// |Score - Threshold|; smaller = more uncertain.
  double Uncertainty = 0.0;
};

/// Ranks the top \p K most uncertain candidates of the solved assignment
/// \p X: skips pinned variables (seeds and previously-pinned oracle
/// answers) and every variable marked in \p Exclude (indexed by VarId —
/// the already-queried set), and orders by (|score-threshold|, rep name,
/// role).
std::vector<Candidate>
rankUncertain(const constraints::ConstraintSystem &Sys,
              const propgraph::RepTable &Reps, const std::vector<double> &X,
              double Threshold, size_t K, const std::vector<uint8_t> &Exclude);

} // namespace active
} // namespace seldon

#endif // SELDON_ACTIVE_UNCERTAINTY_H
