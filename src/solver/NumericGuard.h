//===- solver/NumericGuard.h - Non-finite detection helpers ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the optimizers' numeric failure discipline: the
/// finiteness check both loops run after every fused evaluation, and the
/// evaluation wrapper the `solver-step` fault point poisons so the
/// recovery ladder is exercisable deterministically (by iteration number,
/// independent of thread schedule). On a healthy, unarmed run neither
/// helper changes a single bit of the trajectory.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_NUMERICGUARD_H
#define SELDON_SOLVER_NUMERICGUARD_H

#include "solver/CompiledObjective.h"
#include "support/FaultInjection.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace seldon {
namespace solver {

/// True when the objective value and every gradient component are finite.
inline bool allFinite(double Value, const std::vector<double> &Grad) {
  if (!std::isfinite(Value))
    return false;
  for (double G : Grad)
    if (!std::isfinite(G))
      return false;
  return true;
}

/// One fused objective evaluation, poisoned to NaN when the `solver-step`
/// fault point is armed for \p Iter.
inline double guardedEval(const CompiledObjective &Obj,
                          const std::vector<double> &X,
                          std::vector<double> &Grad, int Iter) {
  double Value = Obj.valueAndGradient(X, Grad);
  if (fault::enabled() &&
      fault::shouldTrip(fault::Point::SolverStep,
                        static_cast<uint64_t>(Iter)))
    Value = std::numeric_limits<double>::quiet_NaN();
  return Value;
}

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_NUMERICGUARD_H
