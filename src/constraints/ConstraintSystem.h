//===- constraints/ConstraintSystem.h - Generated system ---------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of constraint generation: the soft information-flow
/// constraints (paper §4.2/§4.3), the variable table, the pinned seed
/// variables (§4.1), the keep verdicts that give each event its backoff
/// set, and the candidate statistics of the evaluation (Tab. 1).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H
#define SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H

#include "constraints/VarTable.h"
#include "solver/CompiledObjective.h"

#include <cstdint>
#include <vector>

namespace seldon {
namespace constraints {

/// A generated constraint system ready for the solver.
struct ConstraintSystem {
  /// Soft constraints (Σ Lhs ≤ Σ Rhs + C form), flat.
  solver::ConstraintRows Constraints;
  /// (rep, role) -> variable mapping.
  VarTable Vars;
  /// Seed pins: (variable, value in {0, 1}).
  std::vector<std::pair<VarId, double>> Pinned;

  /// One keep verdict per representation of the RepTable the system was
  /// generated against, indexed by RepId (RepTable::keepVerdicts: the
  /// frequency cutoff and the blacklist). An event's backoff set Reps(v)
  /// is its options with a verdict of 1; an event with none is ignored.
  std::vector<uint8_t> Kept;

  /// Number of events with a non-empty backoff set (Tab. 1 "# Candidates").
  size_t NumCandidates = 0;
  /// Mean |Reps(v)| over candidates (Tab. 1 "Average # backoff options").
  double AvgBackoffOptions = 0.0;

  /// Compiles the solver objective (hinge relaxation + L1, Eq. 9) with
  /// the regularization strength \p Lambda and the seed pins applied, on
  /// \p Pool when set (which then also runs the sweeps); see
  /// solver/CompiledObjective.h.
  solver::CompiledObjective
  makeCompiledObjective(double Lambda, ThreadPool *Pool = nullptr) const {
    solver::CompiledObjective Obj(Vars.numVars(), Constraints, Lambda, Pool);
    for (const auto &[Var, Value] : Pinned)
      Obj.pin(Var, Value);
    return Obj;
  }
};

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H
