//===- solver/AdamOptimizer.h - Projected Adam descent -----------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Projected Adam (Kingma & Ba 2014), the optimizer the paper uses through
/// TensorFlow (§4.4): full-batch subgradient steps with first/second moment
/// estimates and bias correction, projecting onto [0,1] (and the pinned
/// seed values) after every step.
///
/// The loop needs exactly one CompiledObjective::valueAndGradient
/// evaluation — one constraint sweep — per iteration: the objective value,
/// the stationarity probe, best-iterate tracking, and the progress callback
/// all derive from that single call.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_ADAMOPTIMIZER_H
#define SELDON_SOLVER_ADAMOPTIMIZER_H

#include "solver/CompiledObjective.h"

namespace seldon {
namespace solver {

/// Bound on the non-finite recovery ladder (see docs/architecture.md
/// "Failure discipline"): each recovery reverts to the best finite
/// iterate, resets the Adam moments, and halves the step scale. Once
/// exhausted the solve falls back to best-so-far with FellBack set.
inline constexpr int MaxRecoveries = 8;

/// Projected Adam gradient descent.
class AdamOptimizer {
public:
  explicit AdamOptimizer(SolveOptions Options = SolveOptions())
      : Options(Options) {}

  /// Minimizes \p Obj from the cold start, Obj.initialPoint().
  SolveResult minimize(const CompiledObjective &Obj) const;

  /// Minimizes \p Obj starting from \p X0 (projected first); a warm start
  /// passes the previous solve's scores.
  SolveResult minimize(const CompiledObjective &Obj,
                       std::vector<double> X0) const;

private:
  SolveOptions Options;
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_ADAMOPTIMIZER_H
