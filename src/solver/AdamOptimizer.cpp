//===- solver/AdamOptimizer.cpp - Projected Adam descent ------------------===//

#include "solver/AdamOptimizer.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

using namespace seldon;
using namespace seldon::solver;

namespace {

/// Adam's moment decay rates and denominator guard (Kingma & Ba's
/// defaults).
constexpr double Beta1 = 0.9;
constexpr double Beta2 = 0.999;
constexpr double Epsilon = 1e-8;

/// True when the objective value and every gradient component are finite.
bool allFinite(double Value, const std::vector<double> &Grad) {
  if (!std::isfinite(Value))
    return false;
  for (double G : Grad)
    if (!std::isfinite(G))
      return false;
  return true;
}

/// One fused objective evaluation, poisoned to NaN when the `solver-step`
/// fault point is armed for \p Iter, so the recovery ladder is exercisable
/// deterministically (by iteration number, independent of thread
/// schedule). Unarmed, it changes no bit of the trajectory.
double guardedEval(const CompiledObjective &Obj, const std::vector<double> &X,
                   std::vector<double> &Grad, int Iter) {
  double Value = Obj.valueAndGradient(X, Grad);
  if (fault::enabled() &&
      fault::shouldTrip(fault::Point::SolverStep,
                        static_cast<uint64_t>(Iter)))
    Value = std::numeric_limits<double>::quiet_NaN();
  return Value;
}

/// Samples per-iteration solver state (objective value, gradient norm,
/// best-iterate acceptances) into the global metrics registry. Handles are
/// resolved once per minimize() call, so the loop pays one null check when
/// metrics are disabled and a few relaxed atomic writes when enabled; the
/// series self-decimate, and metrics never feed back into the trajectory.
struct SolveTelemetry {
  metrics::Series *Objective = nullptr;
  metrics::Series *GradNorm = nullptr;
  metrics::Counter *Iterations = nullptr;
  metrics::Counter *BestUpdates = nullptr;

  SolveTelemetry() {
    metrics::Registry &Reg = metrics::Registry::global();
    if (!Reg.enabled())
      return;
    Objective = &Reg.series("solve.objective");
    GradNorm = &Reg.series("solve.grad_norm");
    Iterations = &Reg.counter("solve.iterations");
    BestUpdates = &Reg.counter("solve.best_updates");
    Reg.counter("solve.runs").add();
  }

  /// Gradient norms cost an O(N) sweep, so they are only computed every
  /// GradStride-th iteration; objective samples are a single store.
  static constexpr int GradStride = 8;

  void onIteration(int Iter, double Value, const std::vector<double> &Grad) {
    if (!Objective)
      return;
    Iterations->add();
    Objective->record(Value);
    if (Iter % GradStride == 0 || Iter == 1) {
      double Norm = 0.0;
      for (double G : Grad)
        Norm += G * G;
      GradNorm->record(std::sqrt(Norm));
    }
  }

  /// A step produced a new best iterate (step acceptance).
  void onBestUpdate() {
    if (BestUpdates)
      BestUpdates->add();
  }
};

} // namespace

SolveResult AdamOptimizer::minimize(const CompiledObjective &Obj) const {
  return minimize(Obj, Obj.initialPoint());
}

SolveResult AdamOptimizer::minimize(const CompiledObjective &Obj,
                                    std::vector<double> X0) const {
  SolveResult Result;
  Result.X = std::move(X0);
  Obj.project(Result.X);

  const size_t N = Obj.numVars();
  std::vector<double> M(N, 0.0), V(N, 0.0), Grad, Mapped;
  SolveTelemetry Telemetry;
  // The only constraint evaluation per iteration: one fused call yields
  // both the objective value at the current iterate and its subgradient.
  double Value = guardedEval(Obj, Result.X, Grad, 0);
  std::vector<double> Best = Result.X;
  double BestValue = Value;
  // Bias-correction powers β₁ᵗ/β₂ᵗ, maintained incrementally instead of
  // calling std::pow every iteration.
  double Beta1T = 1.0, Beta2T = 1.0;
  // 1.0 on a healthy run (the update below is bit-identical to the
  // unscaled one); halved by each recovery rung.
  double StepScale = 1.0;

  // Non-finite recovery ladder: revert to the best finite iterate, clear
  // the Adam moments (stale momentum would relaunch the iterate toward
  // the region that produced the NaN/Inf), halve the step scale, and
  // re-evaluate. Bounded by MaxRecoveries; when the ladder runs dry the
  // solve falls back to best-so-far with FellBack set.
  auto Recover = [&](int Iter) -> bool {
    ++Result.NonFiniteSteps;
    if (!std::isfinite(BestValue)) // Poisoned initial evaluation: the
      BestValue =                  // projected start is still finite.
          std::numeric_limits<double>::infinity();
    while (Result.Recoveries < MaxRecoveries) {
      ++Result.Recoveries;
      Result.X = Best;
      std::fill(M.begin(), M.end(), 0.0);
      std::fill(V.begin(), V.end(), 0.0);
      Beta1T = Beta2T = 1.0;
      StepScale *= 0.5;
      Value = guardedEval(Obj, Result.X, Grad, Iter);
      if (allFinite(Value, Grad))
        return true;
      ++Result.NonFiniteSteps;
    }
    Result.FellBack = true;
    return false;
  };

  if (!allFinite(Value, Grad) && !Recover(0)) {
    // Nothing ever evaluated finite. The projected start is a valid
    // iterate; return it rather than a NaN-poisoned spec.
    Result.FinalObjective = 0.0;
    return Result;
  }

  for (int Iter = 1; Iter <= Options.MaxIterations; ++Iter) {
    if (Options.ShouldStop && Options.ShouldStop()) {
      Result.DeadlineExpired = true;
      break;
    }
    // Stationarity test via the projected-gradient mapping: at a solution,
    // a plain projected step does not move the iterate. (Comparing
    // objective values is unreliable here: an iterate pinned to the box
    // boundary by leftover momentum keeps the objective constant without
    // being optimal.) The probe reuses the gradient of the fused call —
    // no extra constraint sweep.
    Mapped = Result.X;
    for (size_t I = 0; I < N; ++I)
      Mapped[I] -= Options.LearningRate * StepScale * Grad[I];
    Obj.project(Mapped);
    double StepNorm = 0.0;
    for (size_t I = 0; I < N; ++I)
      StepNorm = std::max(StepNorm, std::abs(Mapped[I] - Result.X[I]));
    if (StepNorm < Options.Tolerance) {
      Result.Converged = true;
      Result.Iterations = Iter;
      Telemetry.onIteration(Iter, Value, Grad);
      if (Options.OnIteration)
        Options.OnIteration(Iter, Value);
      break;
    }

    Beta1T *= Beta1;
    Beta2T *= Beta2;
    for (size_t I = 0; I < N; ++I) {
      M[I] = Beta1 * M[I] + (1.0 - Beta1) * Grad[I];
      V[I] = Beta2 * V[I] + (1.0 - Beta2) * Grad[I] * Grad[I];
      double MHat = M[I] / (1.0 - Beta1T);
      double VHat = V[I] / (1.0 - Beta2T);
      Result.X[I] -= Options.LearningRate * StepScale * MHat /
                     (std::sqrt(VHat) + Epsilon);
    }
    Obj.project(Result.X);
    Result.Iterations = Iter;

    Value = guardedEval(Obj, Result.X, Grad, Iter);
    if (!allFinite(Value, Grad)) {
      // Roll back before any telemetry or callback sees the poisoned
      // evaluation; a recovered iteration resumes from the reverted state.
      if (!Recover(Iter))
        break;
      continue;
    }
    // Subgradient iterations are not monotone; keep the best point seen.
    if (Value < BestValue) {
      BestValue = Value;
      Best = Result.X;
      Telemetry.onBestUpdate();
    }
    Telemetry.onIteration(Iter, Value, Grad);
    if (Options.OnIteration)
      Options.OnIteration(Iter, Value);
  }

  // Value is the objective at the final iterate: the loop left it there
  // after the last step (or at the initial point when the loop never ran).
  // A FellBack break leaves Value non-finite, so the comparison routes to
  // the best finite iterate.
  if (Value <= BestValue) {
    Result.FinalObjective = Value;
  } else {
    Result.X = std::move(Best);
    Result.FinalObjective = BestValue;
  }
  if (!std::isfinite(Result.FinalObjective))
    Result.FinalObjective = 0.0; // Nothing finite past the start (FellBack).
  return Result;
}
