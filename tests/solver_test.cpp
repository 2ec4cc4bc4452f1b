//===- tests/solver_test.cpp - Tests for the linear-relaxation solver -----===//
//
// Optimizer behaviour on small systems with known optima. The objective
// itself is tested in objective_kernel_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "solver/AdamOptimizer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace seldon;
using namespace seldon::solver;

namespace {

SolveOptions fastOptions(int Iters = 2000, double Lr = 0.02) {
  SolveOptions O;
  O.MaxIterations = Iters;
  O.LearningRate = Lr;
  O.Tolerance = 1e-10;
  return O;
}

//===----------------------------------------------------------------------===//
// Optimization behaviour (paper §4.4 semantics)
//===----------------------------------------------------------------------===//

/// One pinned implication: pinned(0)=1 and pinned(1)=1 force x2 up via
/// x0 + x1 <= x2 + C. Optimum: x2 = 2 - C (clamped to <= 1).
CompiledObjective impliedVariableSystem(double C, double Lambda) {
  ConstraintRows LC;
  LC.add({{0, 1.0f}, {1, 1.0f}}, {{2, 1.0f}}, C);
  CompiledObjective Obj(3, LC, Lambda);
  Obj.pin(0, 1.0);
  Obj.pin(1, 1.0);
  return Obj;
}

TEST(AdamTest, RaisesImpliedVariable) {
  CompiledObjective Obj = impliedVariableSystem(0.75, 0.1);
  AdamOptimizer Opt(fastOptions());
  SolveResult R = Opt.minimize(Obj);
  // Violation gradient (1) beats lambda (0.1), so x2 rises to 1.25 - but
  // clamps at 1; residual violation 0.25 remains.
  EXPECT_NEAR(R.X[2], 1.0, 1e-2);
}

TEST(AdamTest, LambdaKeepsUnconstrainedVarsAtZero) {
  ConstraintRows LC; // x0 <= x1 + 1  — never violated in the box.
  LC.add({{0, 1.0f}}, {{1, 1.0f}}, 1.0);
  CompiledObjective Obj(2, LC, 0.1);
  AdamOptimizer Opt(fastOptions());
  SolveResult R = Opt.minimize(Obj);
  EXPECT_NEAR(R.X[0], 0.0, 1e-6);
  EXPECT_NEAR(R.X[1], 0.0, 1e-6);
}

TEST(AdamTest, BalancesViolationAgainstRegularization) {
  // x0=1 pinned, x1 pinned 1; x0 + x1 <= x2 + 0.75 pushes x2 to 1;
  // with a huge lambda (2.0 > violation slope 1.0) x2 must stay 0.
  CompiledObjective Obj = impliedVariableSystem(0.75, 2.0);
  AdamOptimizer Opt(fastOptions());
  SolveResult R = Opt.minimize(Obj);
  EXPECT_NEAR(R.X[2], 0.0, 1e-3);
}

TEST(AdamTest, DistributesAcrossSum) {
  // x0 + x1 <= x2 + x3 + C with both lhs pinned at 1: the sum x2 + x3 must
  // reach 1.25; symmetric, so both rise.
  ConstraintRows LC;
  LC.add({{0, 1.0f}, {1, 1.0f}}, {{2, 1.0f}, {3, 1.0f}}, 0.75);
  CompiledObjective Obj(4, LC, 0.05);
  Obj.pin(0, 1.0);
  Obj.pin(1, 1.0);
  AdamOptimizer Opt(fastOptions());
  SolveResult R = Opt.minimize(Obj);
  EXPECT_NEAR(R.X[2] + R.X[3], 1.25, 0.05);
}

TEST(AdamTest, PinnedZeroStaysZero) {
  CompiledObjective Obj = impliedVariableSystem(0.0, 0.0);
  Obj.pin(2, 0.0);
  AdamOptimizer Opt(fastOptions(200));
  SolveResult R = Opt.minimize(Obj);
  EXPECT_DOUBLE_EQ(R.X[2], 0.0);
}

TEST(AdamTest, ConvergesAndReportsIterations) {
  CompiledObjective Obj = impliedVariableSystem(0.75, 0.1);
  SolveOptions O = fastOptions(5000);
  O.Tolerance = 1e-9;
  AdamOptimizer Opt(O);
  SolveResult R = Opt.minimize(Obj);
  EXPECT_TRUE(R.Converged);
  EXPECT_LT(R.Iterations, 5000);
}

TEST(AdamTest, WarmStartFromGivenPoint) {
  CompiledObjective Obj = impliedVariableSystem(0.75, 0.1);
  AdamOptimizer Opt(fastOptions(5));
  SolveResult R = Opt.minimize(Obj, {1.0, 1.0, 0.9});
  EXPECT_GT(R.X[2], 0.8) << "warm start must be used, not reset";
}

TEST(AdamTest, ReachesTheClosedFormOptimum) {
  // x2 clamps at 1: the hinge keeps a residual violation of 2 - 1 - 0.75
  // = 0.25, and λ charges the one unpinned unit, 0.1 · 1.
  CompiledObjective Obj = impliedVariableSystem(0.75, 0.1);
  SolveResult R = AdamOptimizer(fastOptions(4000)).minimize(Obj);
  EXPECT_NEAR(R.FinalObjective, 0.35, 1e-9);
}

TEST(AdamTest, KeepsBestIterate) {
  // Pinned x0 = 1 and x0 <= x1 + 0.5: the optimum is x1 = 0.5 (objective
  // λ · 0.5 = 0.05), which an aggressive step overshoots and keeps
  // circling.
  ConstraintRows LC;
  LC.add({{0, 1.0f}}, {{1, 1.0f}}, 0.5);
  CompiledObjective Obj(2, LC, 0.1);
  Obj.pin(0, 1.0);
  SolveOptions O = fastOptions(50, 0.5);
  double Lowest = Obj.value(Obj.initialPoint());
  double Last = Lowest;
  O.OnIteration = [&Lowest, &Last](int, double Value) {
    Lowest = std::min(Lowest, Value);
    Last = Value;
  };
  SolveResult R = AdamOptimizer(O).minimize(Obj);
  ASSERT_GT(Last, Lowest) << "the last iterate must not be the best one";
  EXPECT_NEAR(R.FinalObjective, Lowest, 1e-12)
      << "the best iterate seen is returned";
  EXPECT_NEAR(Obj.value(R.X), R.FinalObjective, 1e-12);
  EXPECT_NEAR(R.X[1], 0.5, 1e-6);
}

TEST(AdamTest, WarmStartProjectedFirst) {
  CompiledObjective Obj = impliedVariableSystem(0.75, 0.1);
  Obj.pin(2, 0.0);
  SolveResult R = AdamOptimizer(fastOptions(2)).minimize(Obj, {5.0, -3.0, 0.9});
  EXPECT_DOUBLE_EQ(R.X[0], 1.0) << "pinned values restored";
  EXPECT_DOUBLE_EQ(R.X[1], 1.0) << "pinned values restored";
  EXPECT_DOUBLE_EQ(R.X[2], 0.0) << "pin overrides warm start";

  ConstraintRows LC; // x0 <= x1 + 1, nothing pinned.
  LC.add({{0, 1.0f}}, {{1, 1.0f}}, 1.0);
  CompiledObjective Free(2, LC, 0.1);
  SolveResult Clamped =
      AdamOptimizer(fastOptions(0)).minimize(Free, {-3.0, 5.0});
  EXPECT_DOUBLE_EQ(Clamped.X[0], 0.0) << "out-of-box start clamped";
  EXPECT_DOUBLE_EQ(Clamped.X[1], 1.0) << "out-of-box start clamped";
}

// Property sweep: for every slack C, the solved system drives the sum of
// RHS variables toward max(2 - C, 0) clamped into [0, 2].
class SlackSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SlackSweepTest, ResidualMatchesTheory) {
  double C = GetParam();
  ConstraintRows LC;
  LC.add({{0, 1.0f}, {1, 1.0f}}, {{2, 1.0f}, {3, 1.0f}}, C);
  CompiledObjective Obj(4, LC, 0.01);
  Obj.pin(0, 1.0);
  Obj.pin(1, 1.0);
  AdamOptimizer Opt(fastOptions(4000));
  SolveResult R = Opt.minimize(Obj);
  double Expected = std::min(std::max(2.0 - C, 0.0), 2.0);
  EXPECT_NEAR(R.X[2] + R.X[3], Expected, 0.08) << "C = " << C;
}

INSTANTIATE_TEST_SUITE_P(Slack, SlackSweepTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0, 1.5,
                                           2.0));

} // namespace
