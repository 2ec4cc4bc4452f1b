//===- solver/Problem.h - Relaxed constraint-system problem ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relaxed linear optimization problem of paper §4.4, Eq. (9):
///
///   min  Σ_i max(L_i − R_i, 0)  +  λ · Σ_v x_v
///   s.t. 0 ≤ x_v ≤ 1            (Eq. 10, enforced by projection)
///        x_v = c_v for pinned v (Eq. 11, the seed specification)
///
/// Each soft constraint states Σ lhs ≤ Σ rhs + C; its violation
/// max(Σ lhs − Σ rhs − C, 0) is hinge-shaped, so the objective is convex
/// and a subgradient method converges. This header holds the problem's
/// input (the constraint list) and the optimizers' knobs and results; the
/// evaluator is solver::CompiledObjective.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_PROBLEM_H
#define SELDON_SOLVER_PROBLEM_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace seldon {
namespace solver {

/// One weighted variable occurrence.
struct Term {
  uint32_t Var = 0;
  float Coef = 1.0f;
};

/// A soft constraint: Σ Lhs ≤ Σ Rhs + C.
struct LinearConstraint {
  std::vector<Term> Lhs;
  std::vector<Term> Rhs;
  double C = 0.0;
};

/// Which evaluator a solve runs on. One kernel remains: the compiled CSR
/// objective with its blocked scalar/AVX2/AVX-512 sweep. The enumerator
/// keeps the value 1 it had when four backends existed, because seldond's
/// journal stores it as a byte.
enum class SolverBackend : uint8_t {
  Compiled = 1, ///< solver::CompiledObjective.
};

/// CLI/wire name of \p Backend: "compiled".
inline const char *solverBackendName(SolverBackend) { return "compiled"; }

/// What a backend flag or field accepts, for error messages.
inline constexpr const char *SolverBackendChoices =
    "compiled (legacy, simd and simd-f32 were merged into compiled)";

/// Parses a CLI/wire backend name; returns false on any name but
/// "compiled" without touching \p Out.
inline bool parseSolverBackend(const std::string &Name, SolverBackend &Out) {
  if (Name != "compiled")
    return false;
  Out = SolverBackend::Compiled;
  return true;
}

/// Shared optimizer knobs and results.
struct SolveOptions {
  int MaxIterations = 500;
  double LearningRate = 0.05;
  /// Convergence threshold. Projected gradient descent stops when the
  /// objective changes by less than this between iterations; Adam stops
  /// when a plain projected step would move no coordinate by this much.
  double Tolerance = 1e-7;
  /// Adam moment decay rates.
  double Beta1 = 0.9;
  double Beta2 = 0.999;
  double Epsilon = 1e-8;
  /// Bound on the non-finite recovery ladder (see docs/architecture.md
  /// "Failure discipline"): each recovery reverts to the best finite
  /// iterate, resets the Adam moments, and halves the step scale. Once
  /// exhausted the solve falls back to best-so-far with FellBack set.
  int MaxRecoveries = 8;
  /// The one stop condition, polled once per iteration (callers wire
  /// their deadline in here). Returning true stops the loop and returns
  /// the best iterate so far with DeadlineExpired set — partial and
  /// flagged, never a hang.
  std::function<bool()> ShouldStop;
  /// Invoked after every completed iteration with (iteration, current
  /// objective value). Called from the optimizing thread; must not mutate
  /// the objective. Never invoked with a non-finite objective value —
  /// poisoned evaluations are rolled back before any callback fires.
  std::function<void(int Iteration, double Objective)> OnIteration;
  /// Evaluator Session::solve builds for the run.
  SolverBackend Backend = SolverBackend::Compiled;
};

struct SolveResult {
  std::vector<double> X;
  double FinalObjective = 0.0;
  int Iterations = 0;
  bool Converged = false;

  /// Evaluations whose objective value or gradient came back non-finite
  /// (NaN/Inf). Zero on a healthy run — the guards never change the
  /// trajectory of a finite solve.
  int NonFiniteSteps = 0;
  /// Recovery-ladder rungs taken (revert + moment reset + step backoff)
  /// that produced a finite re-evaluation.
  int Recoveries = 0;
  /// The ladder ran dry: the result is the best finite iterate seen (or
  /// the projected initial point when nothing ever evaluated finite).
  bool FellBack = false;
  /// ShouldStop ended the loop before convergence.
  bool DeadlineExpired = false;
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_PROBLEM_H
