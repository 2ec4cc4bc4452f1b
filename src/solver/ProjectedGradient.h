//===- solver/ProjectedGradient.h - Plain projected subgradient --*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain projected-subgradient baseline with 1/sqrt(t) step decay. Used
/// by the optimizer-choice ablation and as a sanity cross-check of Adam:
/// both must converge to the same objective value on convex systems.
///
/// Like AdamOptimizer, the loop performs one valueAndGradient evaluation
/// per iteration.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_PROJECTEDGRADIENT_H
#define SELDON_SOLVER_PROJECTEDGRADIENT_H

#include "solver/CompiledObjective.h"

namespace seldon {
namespace solver {

/// Projected subgradient descent with diminishing steps.
class ProjectedGradient {
public:
  explicit ProjectedGradient(SolveOptions Options = SolveOptions())
      : Options(Options) {}

  /// Minimizes \p Obj from the cold start, Obj.initialPoint().
  SolveResult minimize(const CompiledObjective &Obj) const;

  /// Minimizes starting from \p X0 (projected first); a warm start passes
  /// the previous solve's scores.
  SolveResult minimize(const CompiledObjective &Obj,
                       std::vector<double> X0) const;

private:
  SolveOptions Options;
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_PROJECTEDGRADIENT_H
