//===- tests/objective_kernel_test.cpp - The solver kernel ----------------===//
//
// solver::CompiledObjective is the only objective evaluator, so this file
// checks it from three sides:
//
//  * Against a naive oracle: a direct evaluation of the uncompiled
//    constraint list. Comparisons run at points where every sum either
//    evaluator performs is exact in double (coefficients are floats 1/n,
//    evaluation points multiples of 2^-8), so results are independent of
//    term order, merging, and duplicate coalescing and must match bitwise.
//  * Against a reference compile: the unordered_map<std::string>
//    canonicalize-and-coalesce algorithm the kernel replaced. The kernel's
//    CSR arrays must come out identical to it.
//  * Against itself: every kernel tier (SELDON_SIMD=off, avx2, unset) and
//    every Jobs setting must produce bit-identical values, gradients and
//    optimizer trajectories at arbitrary points. Each lane accumulates its
//    row in CSR order with separate mul/add, so this holds off the grid.
//
// Tests that do not sweep tiers run on whatever SELDON_SIMD selects, so
// running the binary once per setting covers each tier.
//
//===----------------------------------------------------------------------===//

#include "solver/AdamOptimizer.h"
#include "solver/CompiledObjective.h"
#include "support/ThreadPool.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>

using namespace seldon;
using namespace seldon::solver;

namespace {

//===----------------------------------------------------------------------===//
// Oracle, reference compile, systems
//===----------------------------------------------------------------------===//

/// A constraint system with pins, as the generator hands it to the solver.
struct System {
  size_t NumVars = 0;
  ConstraintRows Constraints;
  double Lambda = 0.1;
  std::vector<std::pair<uint32_t, double>> Pins;

  CompiledObjective compile() const {
    CompiledObjective Obj(NumVars, Constraints, Lambda);
    for (const auto &[Var, Value] : Pins)
      Obj.pin(Var, Value);
    return Obj;
  }
};

/// The naive oracle: evaluates every constraint as written, one at a
/// time, with no canonicalization, coalescing or sharding.
struct NaiveObjective {
  const System &Sys;

  std::vector<uint8_t> pinMask() const {
    std::vector<uint8_t> Mask(Sys.NumVars, 0);
    for (const auto &[Var, Value] : Sys.Pins)
      Mask[Var] = 1;
    return Mask;
  }

  double rowValue(const LinearConstraint &LC,
                  const std::vector<double> &X) const {
    double V = -LC.C;
    for (const Term &T : LC.Lhs)
      V += T.Coef * X[T.Var];
    for (const Term &T : LC.Rhs)
      V -= T.Coef * X[T.Var];
    return V;
  }

  double hingeLoss(const std::vector<double> &X) const {
    double Total = 0.0;
    for (const LinearConstraint &LC : Sys.Constraints)
      Total += std::max(rowValue(LC, X), 0.0);
    return Total;
  }

  double value(const std::vector<double> &X) const {
    double Total = hingeLoss(X);
    std::vector<uint8_t> Pinned = pinMask();
    for (size_t V = 0; V < Sys.NumVars; ++V)
      if (!Pinned[V])
        Total += Sys.Lambda * X[V];
    return Total;
  }

  std::vector<double> gradient(const std::vector<double> &X) const {
    std::vector<double> Grad(Sys.NumVars, 0.0);
    for (const LinearConstraint &LC : Sys.Constraints) {
      if (rowValue(LC, X) <= 0.0)
        continue;
      for (const Term &T : LC.Lhs)
        Grad[T.Var] += T.Coef;
      for (const Term &T : LC.Rhs)
        Grad[T.Var] -= T.Coef;
    }
    std::vector<uint8_t> Pinned = pinMask();
    for (size_t V = 0; V < Sys.NumVars; ++V)
      Grad[V] = Pinned[V] ? 0.0 : Grad[V] + Sys.Lambda;
    return Grad;
  }
};

/// CSR arrays of a compiled system.
struct Csr {
  std::vector<uint32_t> RowBegin{0};
  std::vector<uint32_t> VarIdx;
  std::vector<double> Coef, Weight, C;
};

/// The reference compile: canonicalize each constraint into its own term
/// vector, key its byte image as a std::string, coalesce through an
/// unordered_map, and lay survivors out in first-occurrence order.
Csr referenceCompile(const ConstraintRows &Constraints) {
  Csr Out;
  std::unordered_map<std::string, uint32_t> RowIndex;
  for (const LinearConstraint &LC : Constraints) {
    std::vector<std::pair<uint32_t, double>> Terms;
    for (const Term &T : LC.Lhs)
      Terms.emplace_back(T.Var, static_cast<double>(T.Coef));
    for (const Term &T : LC.Rhs)
      Terms.emplace_back(T.Var, -static_cast<double>(T.Coef));
    std::sort(Terms.begin(), Terms.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    size_t N = 0;
    for (size_t I = 0; I < Terms.size();) {
      uint32_t Var = Terms[I].first;
      double Sum = 0.0;
      for (; I < Terms.size() && Terms[I].first == Var; ++I)
        Sum += Terms[I].second;
      if (Sum != 0.0)
        Terms[N++] = {Var, Sum};
    }
    Terms.resize(N);

    std::string Key(reinterpret_cast<const char *>(&LC.C), sizeof(double));
    for (const auto &[Var, Coef] : Terms) {
      Key.append(reinterpret_cast<const char *>(&Var), sizeof(uint32_t));
      Key.append(reinterpret_cast<const char *>(&Coef), sizeof(double));
    }
    auto [It, Inserted] =
        RowIndex.emplace(Key, static_cast<uint32_t>(Out.C.size()));
    if (!Inserted) {
      Out.Weight[It->second] += 1.0;
      continue;
    }
    for (const auto &[Var, Coef] : Terms) {
      Out.VarIdx.push_back(Var);
      Out.Coef.push_back(Coef);
    }
    Out.RowBegin.push_back(static_cast<uint32_t>(Out.VarIdx.size()));
    Out.Weight.push_back(1.0);
    Out.C.push_back(LC.C);
  }
  return Out;
}

/// A random system in the shape the generator emits: averaging
/// coefficients 1/n, constants that are multiples of 0.25, seed pins, and
/// a healthy fraction of exact duplicates. Large enough (3k constraints)
/// to span multiple shards.
System randomSystem(uint32_t Seed, size_t NumVars = 60,
                    size_t NumConstraints = 3000, double Lambda = 0.1) {
  std::mt19937 Rng(Seed);
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  System Sys;
  Sys.NumVars = NumVars;
  Sys.Lambda = Lambda;
  while (Sys.Constraints.size() < NumConstraints) {
    std::vector<Term> Lhs, Rhs;
    int NumLhs = Rand(1, 3), NumRhs = Rand(0, 3);
    for (int I = 0; I < NumLhs; ++I)
      Lhs.push_back({static_cast<uint32_t>(Rand(0, NumVars - 1)),
                     1.0f / Rand(1, 6)});
    for (int I = 0; I < NumRhs; ++I)
      Rhs.push_back({static_cast<uint32_t>(Rand(0, NumVars - 1)),
                     1.0f / Rand(1, 6)});
    double C = 0.25 * Rand(0, 4);
    // Duplicate some constraints, as big-code corpora do.
    int Copies = Rand(0, 4) == 0 ? Rand(2, 5) : 1;
    for (int I = 0; I < Copies && Sys.Constraints.size() < NumConstraints;
         ++I)
      Sys.Constraints.add(Lhs, Rhs, C);
  }
  for (size_t I = 0; I < NumVars / 10; ++I)
    Sys.Pins.emplace_back(Rand(0, NumVars - 1), Rand(0, 1));
  return Sys;
}

/// A random point on the 2^-8 grid: every product with a coefficient is
/// exact in double, so evaluation order cannot affect the result.
std::vector<double> gridPoint(std::mt19937 &Rng, size_t NumVars) {
  std::uniform_int_distribution<int> Dist(0, 256);
  std::vector<double> X(NumVars);
  for (double &V : X)
    V = Dist(Rng) / 256.0;
  return X;
}

/// An arbitrary (non-grid) point in [0, 1].
std::vector<double> randomPoint(std::mt19937 &Rng, size_t NumVars) {
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  std::vector<double> X(NumVars);
  for (double &V : X)
    V = Dist(Rng);
  return X;
}

template <class T>
bool bitwiseEqual(const std::vector<T> &A, const std::vector<T> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(T)) == 0;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

SolveResult runAdam(const CompiledObjective &Obj, int Iters = 120) {
  SolveOptions O;
  O.MaxIterations = Iters;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-9;
  return AdamOptimizer(O).minimize(Obj);
}

using testutil::ScopedEnv;

/// The tier sweep: SELDON_SIMD=off, avx2, and unset.
constexpr auto &TierSettings = testutil::SimdTierSettings;

const char *settingName(const char *Setting) {
  return Setting ? Setting : "<unset>";
}

/// Compiles \p Sys under SELDON_SIMD=\p Setting; the objective keeps the
/// tier it dispatched to after the scope ends.
CompiledObjective compileAt(const System &Sys, const char *Setting) {
  ScopedEnv Scoped("SELDON_SIMD", Setting);
  return Sys.compile();
}

//===----------------------------------------------------------------------===//
// Objective mechanics
//===----------------------------------------------------------------------===//

TEST(ObjectiveTest, HingeLossComputation) {
  // Constraint: x0 <= x1 + 0.5.
  ConstraintRows C;
  C.add({{0, 1.0f}}, {{1, 1.0f}}, 0.5);
  CompiledObjective Obj(2, C, 0.0);
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({1.0, 0.0}), 0.5);
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({1.0, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({0.2, 0.0}), 0.0);
}

TEST(ObjectiveTest, L1TermExcludesPinned) {
  CompiledObjective Obj(2, {}, 0.1);
  Obj.pin(0, 1.0);
  std::vector<double> X{1.0, 1.0};
  EXPECT_NEAR(Obj.value(X), 0.1, 1e-12);
}

TEST(ObjectiveTest, GradientOfViolatedConstraint) {
  ConstraintRows C;
  C.add({{0, 1.0f}}, {{1, 2.0f}}, 0.0);
  CompiledObjective Obj(2, C, 0.0);
  std::vector<double> Grad;
  Obj.gradient({1.0, 0.1}, Grad); // 1.0 - 0.2 > 0: violated.
  EXPECT_DOUBLE_EQ(Grad[0], 1.0);
  EXPECT_DOUBLE_EQ(Grad[1], -2.0);
  Obj.gradient({0.1, 0.5}, Grad); // Satisfied: only L1 (lambda = 0).
  EXPECT_DOUBLE_EQ(Grad[0], 0.0);
  EXPECT_DOUBLE_EQ(Grad[1], 0.0);
}

TEST(ObjectiveTest, ProjectClampsAndRestoresPins) {
  CompiledObjective Obj(3, {}, 0.0);
  Obj.pin(2, 1.0);
  std::vector<double> X{-0.5, 1.5, 0.0};
  Obj.project(X);
  EXPECT_DOUBLE_EQ(X[0], 0.0);
  EXPECT_DOUBLE_EQ(X[1], 1.0);
  EXPECT_DOUBLE_EQ(X[2], 1.0);
}

TEST(ObjectiveTest, InitialPointIsFeasible) {
  CompiledObjective Obj(2, {}, 0.1);
  Obj.pin(0, 1.0);
  std::vector<double> X = Obj.initialPoint();
  EXPECT_DOUBLE_EQ(X[0], 1.0);
  EXPECT_DOUBLE_EQ(X[1], 0.0);
}

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

TEST(CompileTest, MergesDuplicateTermsWithinASide) {
  // x0·0.5 + x0·0.25 <= 0.25 lowers to one CSR entry with coef 0.75.
  ConstraintRows LC;
  LC.add({{0, 0.5f}, {0, 0.25f}}, {}, 0.25);
  CompiledObjective Obj(1, LC, 0.0);
  EXPECT_EQ(Obj.numRows(), 1u);
  EXPECT_EQ(Obj.numNonZeros(), 1u);
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({1.0}), 0.5);
  std::vector<double> Grad;
  Obj.gradient({1.0}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 0.75);
}

TEST(CompileTest, FoldsRhsWithNegatedCoefficients) {
  // x0 <= 0.5·x1 + 0.25 becomes x0 − 0.5·x1 <= 0.25.
  ConstraintRows LC;
  LC.add({{0, 1.0f}}, {{1, 0.5f}}, 0.25);
  CompiledObjective Obj(2, LC, 0.0);
  EXPECT_EQ(Obj.numNonZeros(), 2u);
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({1.0, 0.5}), 0.5);
  std::vector<double> Grad;
  Obj.gradient({1.0, 0.5}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 1.0);
  EXPECT_DOUBLE_EQ(Grad[1], -0.5);
}

TEST(CompileTest, DropsTermsThatCancelAcrossSides) {
  // x0 + 0.5·x1 <= 0.5·x1: the x1 terms cancel exactly and vanish.
  ConstraintRows LC;
  LC.add({{0, 1.0f}, {1, 0.5f}}, {{1, 0.5f}}, 0.0);
  CompiledObjective Obj(2, LC, 0.0);
  EXPECT_EQ(Obj.numNonZeros(), 1u);
  std::vector<double> Grad;
  Obj.gradient({1.0, 1.0}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 1.0);
  EXPECT_DOUBLE_EQ(Grad[1], 0.0);
}

TEST(CompileTest, CoalescesExactDuplicatesWithMultiplicity) {
  ConstraintRows Rows;
  auto A = [&] { Rows.add({{0, 1.0f}}, {{1, 1.0f}}, 0.25); };
  auto B = [&] { Rows.add({{1, 1.0f}}, {}, 0.75); };
  A();
  A();
  B();
  A();
  CompiledObjective Obj(2, Rows, 0.0);
  const CompileStats &S = Obj.stats();
  EXPECT_EQ(S.RowsBefore, 4u);
  EXPECT_EQ(S.RowsAfter, 2u);
  EXPECT_EQ(S.MaxMultiplicity, 3u);
  EXPECT_DOUBLE_EQ(S.dedupRatio(), 2.0);
  // Three copies of A, each violated by 0.75: the weighted row must
  // contribute exactly 3 · 0.75.
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({1.0, 0.0}), 3 * 0.75);
  std::vector<double> Grad;
  Obj.gradient({1.0, 0.0}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 3.0);
  EXPECT_DOUBLE_EQ(Grad[1], -3.0);
}

TEST(CompileTest, CoalescesRowsThatDifferOnlyInTermOrder) {
  ConstraintRows Rows;
  Rows.add({{0, 0.5f}, {1, 0.25f}}, {}, 0.25);
  Rows.add({{1, 0.25f}, {0, 0.5f}}, {}, 0.25); // Same row, different spelling.
  CompiledObjective Obj(2, Rows, 0.0);
  EXPECT_EQ(Obj.stats().RowsAfter, 1u);
  EXPECT_EQ(Obj.stats().MaxMultiplicity, 2u);
}

TEST(CompileTest, DoesNotCoalesceDifferentConstants) {
  ConstraintRows Rows;
  Rows.add({{0, 1.0f}}, {}, 0.25);
  Rows.add({{0, 1.0f}}, {}, 0.75);
  CompiledObjective Obj(1, Rows, 0.0);
  EXPECT_EQ(Obj.stats().RowsAfter, 2u);
}

TEST(CompileTest, CoalescesDuplicatesWithPermutedTermsAcrossSides) {
  // x0 + x2 <= 0.5·x1 + 0.25, spelled three ways: permuted Lhs, the x1
  // term split in two, and x2 moved over as a negated Rhs term plus a
  // cancelling pair. All canonicalize to one row of multiplicity 3.
  ConstraintRows Rows;
  Rows.add({{0, 1.0f}, {2, 1.0f}}, {{1, 0.5f}}, 0.25);
  Rows.add({{2, 1.0f}, {0, 1.0f}}, {{1, 0.25f}, {1, 0.25f}}, 0.25);
  Rows.add({{3, 0.5f}, {0, 1.0f}}, {{1, 0.5f}, {2, -1.0f}, {3, 0.5f}}, 0.25);
  CompiledObjective Obj(4, Rows, 0.0);
  EXPECT_EQ(Obj.stats().RowsAfter, 1u);
  EXPECT_EQ(Obj.stats().MaxMultiplicity, 3u);
  EXPECT_EQ(Obj.varIdx(), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(Obj.coef(), (std::vector<double>{1.0, -0.5, 1.0}));
}

TEST(CompileTest, RowWhoseTermsAllCancelStaysAnEmptyRow) {
  // x0 <= x0 − 0.5 cancels to 0 <= −0.5: no terms left, permanently
  // violated by 0.5 per copy, and it still coalesces with its twin.
  ConstraintRows Rows;
  auto LC = [&] { Rows.add({{0, 1.0f}}, {{0, 1.0f}}, -0.5); };
  auto Other = [&] { Rows.add({{1, 1.0f}}, {}, 0.0); };
  LC();
  Other();
  LC();
  CompiledObjective Obj(2, Rows, 0.0);
  EXPECT_EQ(Obj.numRows(), 2u);
  EXPECT_EQ(Obj.rowBegin(), (std::vector<uint32_t>{0, 0, 1}));
  EXPECT_EQ(Obj.weight(), (std::vector<double>{2.0, 1.0}));
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({0.0, 0.0}), 1.0);
  std::vector<double> Grad;
  EXPECT_DOUBLE_EQ(Obj.valueAndGradient({1.0, 0.0}, Grad), 1.0);
  EXPECT_EQ(Grad, (std::vector<double>{0.0, 0.0}));
}

TEST(CompileTest, NegativeZeroConstantIsADistinctRow) {
  // The coalescing key is the bitwise row image, so C = -0.0 and C = 0.0
  // stay two rows — the same split a byte-image key makes — while
  // evaluating identically.
  ConstraintRows Rows;
  auto Pos = [&] { Rows.add({{0, 1.0f}}, {}, 0.0); };
  auto Neg = [&] { Rows.add({{0, 1.0f}}, {}, -0.0); };
  Pos();
  Neg();
  Pos();
  CompiledObjective Obj(1, Rows, 0.0);
  EXPECT_EQ(Obj.numRows(), 2u);
  EXPECT_EQ(Obj.weight(), (std::vector<double>{2.0, 1.0}));
  EXPECT_FALSE(std::signbit(Obj.rowConstant()[0]));
  EXPECT_TRUE(std::signbit(Obj.rowConstant()[1]));
  EXPECT_DOUBLE_EQ(Obj.hingeLoss({0.5}), 1.5);
}

TEST(CompileTest, CsrMatchesReferenceCompile) {
  // Serial and pooled compiles alike: the pool only canonicalizes in
  // parallel; rows still coalesce in constraint order.
  ThreadPool Pool(4);
  for (uint32_t Seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    System Sys = randomSystem(Seed, 60, Seed < 5 ? 3000 : 40000);
    CompiledObjective Obj =
        Seed % 2 ? Sys.compile()
                 : CompiledObjective(Sys.NumVars, Sys.Constraints, Sys.Lambda,
                                     &Pool);
    Csr Ref = referenceCompile(Sys.Constraints);
    ASSERT_LT(Ref.C.size(), Sys.Constraints.size())
        << "random system must contain duplicates for this test to bite";
    EXPECT_TRUE(bitwiseEqual(Obj.rowBegin(), Ref.RowBegin)) << Seed;
    EXPECT_TRUE(bitwiseEqual(Obj.varIdx(), Ref.VarIdx)) << Seed;
    EXPECT_TRUE(bitwiseEqual(Obj.coef(), Ref.Coef)) << Seed;
    EXPECT_TRUE(bitwiseEqual(Obj.weight(), Ref.Weight)) << Seed;
    EXPECT_TRUE(bitwiseEqual(Obj.rowConstant(), Ref.C)) << Seed;
    const CompileStats &S = Obj.stats();
    EXPECT_EQ(S.RowsBefore, Sys.Constraints.size());
    EXPECT_EQ(S.RowsAfter, Ref.C.size());
    EXPECT_EQ(S.NonZeros, Ref.VarIdx.size());
    EXPECT_EQ(S.MaxMultiplicity,
              static_cast<size_t>(
                  *std::max_element(Ref.Weight.begin(), Ref.Weight.end())));
  }
}

TEST(CompileTest, PinsBehaveLikeLegacy) {
  CompiledObjective Obj(2, {}, 0.1);
  Obj.pin(0, 1.0);
  EXPECT_TRUE(Obj.isPinned(0));
  EXPECT_DOUBLE_EQ(Obj.pinnedValue(0), 1.0);
  // Pinned vars carry no L1 term and no gradient; project restores them.
  EXPECT_NEAR(Obj.value({1.0, 1.0}), 0.1, 1e-12);
  std::vector<double> Grad;
  Obj.gradient({1.0, 1.0}, Grad);
  EXPECT_DOUBLE_EQ(Grad[0], 0.0);
  EXPECT_DOUBLE_EQ(Grad[1], 0.1);
  std::vector<double> X{0.25, -1.0};
  Obj.project(X);
  EXPECT_DOUBLE_EQ(X[0], 1.0);
  EXPECT_DOUBLE_EQ(X[1], 0.0);
}

TEST(CompileTest, RejectsSystemsOverflowingThe32BitCsrLayout) {
  // RowBegin/VarIdx are uint32_t; past ~4.29B entries the offsets would
  // wrap silently. SELDON_TEST_CSR_LIMIT shrinks the limit so the guard
  // can be exercised without allocating billions of entries.
  setenv("SELDON_TEST_CSR_LIMIT", "6", 1);
  // Four distinct 2-term rows = 8 non-zeros > 6: must throw, descriptively.
  ConstraintRows Big;
  for (int I = 0; I < 4; ++I)
    Big.add({{static_cast<uint32_t>(2 * I), 1.0f},
             {static_cast<uint32_t>(2 * I + 1), 0.5f}},
            {}, 0.25);
  try {
    CompiledObjective Obj(8, Big, 0.1);
    unsetenv("SELDON_TEST_CSR_LIMIT");
    FAIL() << "expected the CSR overflow guard to throw";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("32-bit CSR layout"),
              std::string::npos)
        << E.what();
  }

  // Rows past the limit trip the guard even when non-zeros stay under it.
  setenv("SELDON_TEST_CSR_LIMIT", "3", 1);
  ConstraintRows ManyRows;
  for (int I = 0; I < 4; ++I)
    ManyRows.add({{static_cast<uint32_t>(I), 1.0f}}, {}, 0.25);
  EXPECT_THROW(CompiledObjective(4, ManyRows, 0.1), std::runtime_error);

  // Duplicates coalesce before the check: many copies of few rows pass.
  ConstraintRows Duplicates;
  for (int I = 0; I < 100; ++I)
    Duplicates.add(ManyRows[0].Lhs, ManyRows[0].Rhs, ManyRows[0].C);
  EXPECT_NO_THROW(CompiledObjective(4, Duplicates, 0.1));
  unsetenv("SELDON_TEST_CSR_LIMIT");

  // Back at the real limit, ordinary systems compile.
  EXPECT_NO_THROW(CompiledObjective(8, Big, 0.1));
}

//===----------------------------------------------------------------------===//
// Against the oracle
//===----------------------------------------------------------------------===//

TEST(CompiledEquivalenceTest, ValuesAndGradientsBitwiseEqualOnGridPoints) {
  for (uint32_t Seed : {1u, 2u, 3u}) {
    System Sys = randomSystem(Seed);
    NaiveObjective Oracle{Sys};
    for (const char *Setting : TierSettings) {
      CompiledObjective Obj = compileAt(Sys, Setting);
      std::mt19937 Rng(Seed * 7919);
      for (int Trial = 0; Trial < 20; ++Trial) {
        std::vector<double> X = gridPoint(Rng, Sys.NumVars);
        Obj.project(X);
        EXPECT_EQ(Oracle.hingeLoss(X), Obj.hingeLoss(X));
        EXPECT_EQ(Oracle.value(X), Obj.value(X));
        std::vector<double> Grad, Fused;
        Obj.gradient(X, Grad);
        EXPECT_TRUE(bitwiseEqual(Oracle.gradient(X), Grad))
            << "seed " << Seed << " SELDON_SIMD=" << settingName(Setting);
        // The fused kernel must agree with its own split evaluators.
        EXPECT_EQ(Obj.valueAndGradient(X, Fused), Obj.value(X));
        EXPECT_TRUE(bitwiseEqual(Fused, Grad));
      }
    }
  }
}

TEST(CompiledEquivalenceTest, ParallelSweepsBitwiseEqualSerial) {
  System Sys = randomSystem(42);
  CompiledObjective Serial = Sys.compile();
  CompiledObjective Parallel = Sys.compile();
  ASSERT_GT(Serial.numShards(), 1u) << "system too small to test sharding";
  ThreadPool Pool(4);
  Parallel.setThreadPool(&Pool);

  std::mt19937 Rng(99);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<double> X = gridPoint(Rng, Sys.NumVars);
    Serial.project(X);
    std::vector<double> GradS, GradP;
    double ValueS = Serial.valueAndGradient(X, GradS);
    double ValueP = Parallel.valueAndGradient(X, GradP);
    EXPECT_EQ(ValueS, ValueP);
    EXPECT_TRUE(bitwiseEqual(GradS, GradP));
  }
}

TEST(CompiledEquivalenceTest, FullAdamTrajectoryMatchesAcrossJobs) {
  System Sys = randomSystem(7);
  CompiledObjective Serial = Sys.compile();
  CompiledObjective Parallel = Sys.compile();
  ThreadPool Pool(4);
  Parallel.setThreadPool(&Pool);
  SolveResult RS = runAdam(Serial);
  SolveResult RP = runAdam(Parallel);
  EXPECT_EQ(RS.Iterations, RP.Iterations);
  EXPECT_TRUE(bitwiseEqual(RS.X, RP.X));
  EXPECT_EQ(RS.FinalObjective, RP.FinalObjective);
}

TEST(CompiledEquivalenceTest, CallbackSeesEveryIteration) {
  // The fused loop must preserve the iteration/callback contract the
  // pipeline's progress observer relies on: exactly one callback per
  // counted iteration, including the converging one.
  System Sys = randomSystem(19, /*NumVars=*/20, /*NumConstraints=*/50);
  CompiledObjective Obj = Sys.compile();
  SolveOptions O;
  O.MaxIterations = 2000;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-7;
  int Calls = 0, LastIter = 0;
  O.OnIteration = [&](int Iter, double) {
    ++Calls;
    LastIter = Iter;
  };
  SolveResult R = AdamOptimizer(O).minimize(Obj);
  EXPECT_EQ(Calls, R.Iterations);
  EXPECT_EQ(LastIter, R.Iterations);
  EXPECT_TRUE(R.Converged);
}

//===----------------------------------------------------------------------===//
// Blocked layout
//===----------------------------------------------------------------------===//

TEST(SimdLayoutTest, BlocksCoverEveryRowOnce) {
  System Sys = randomSystem(3);
  for (const char *Setting : TierSettings) {
    CompiledObjective Obj = compileAt(Sys, Setting);
    // At least ceil(rows/lanes) blocks, padding bounded by the per-block
    // spread (at most (lanes-1)·width per block).
    EXPECT_EQ(Obj.lanesPerBlock(),
              Obj.tier() == KernelTier::Avx512 ? 8u : 4u);
    EXPECT_GE(Obj.numBlocks() * Obj.lanesPerBlock(), Obj.numRows());
    EXPECT_LT(Obj.numBlocks(), Obj.numRows());
    EXPECT_GT(Obj.paddedEntries(), 0u) << "variable-length rows must pad";
  }
}

TEST(SimdLayoutTest, CompileCopiesPins) {
  // Pins set after compilation reach every tier's sweep epilogue.
  System Sys = randomSystem(8, /*NumVars=*/12, /*NumConstraints=*/200);
  Sys.Pins = {{1, 1.0}, {4, 0.0}};
  std::mt19937 Rng(8);
  std::vector<double> X = gridPoint(Rng, Sys.NumVars);
  for (const char *Setting : TierSettings) {
    CompiledObjective Obj = compileAt(Sys, Setting);
    EXPECT_TRUE(Obj.isPinned(1));
    EXPECT_DOUBLE_EQ(Obj.pinnedValue(1), 1.0);
    EXPECT_FALSE(Obj.isPinned(0));
    EXPECT_DOUBLE_EQ(Obj.lambda(), 0.1);
    std::vector<double> P = X, Grad;
    Obj.project(P);
    Obj.valueAndGradient(P, Grad);
    EXPECT_EQ(Grad[1], 0.0);
    EXPECT_EQ(Grad[4], 0.0);
    EXPECT_TRUE(bitwiseEqual(Grad, NaiveObjective{Sys}.gradient(P)));
  }
}

TEST(SimdLayoutTest, EmptySystemEvaluatesToZero) {
  CompiledObjective Obj(4, {}, 0.5);
  std::vector<double> Grad;
  EXPECT_EQ(Obj.numShards(), 0u);
  EXPECT_EQ(Obj.hingeLoss({0.0, 0.0, 0.0, 0.0}), 0.0);
  EXPECT_EQ(Obj.valueAndGradient({1.0, 1.0, 1.0, 1.0}, Grad), 2.0);
  for (double G : Grad)
    EXPECT_DOUBLE_EQ(G, 0.5);
}

//===----------------------------------------------------------------------===//
// Tiers and Jobs: bit-identical at arbitrary points
//===----------------------------------------------------------------------===//

TEST(SimdEquivalenceTest, ValuesAndGradientsBitwiseEqualAtArbitraryPoints) {
  for (uint32_t Seed : {1u, 2u, 3u}) {
    System Sys = randomSystem(Seed);
    CompiledObjective Scalar = compileAt(Sys, "off");
    ASSERT_EQ(Scalar.tier(), KernelTier::Scalar);
    for (const char *Setting : {"avx2", static_cast<const char *>(nullptr)}) {
      CompiledObjective Obj = compileAt(Sys, Setting);
      std::mt19937 Rng(Seed * 7919);
      for (int Trial = 0; Trial < 20; ++Trial) {
        std::vector<double> X = Trial % 2 ? randomPoint(Rng, Sys.NumVars)
                                          : gridPoint(Rng, Sys.NumVars);
        Scalar.project(X);
        EXPECT_TRUE(sameBits(Scalar.hingeLoss(X), Obj.hingeLoss(X)));
        EXPECT_TRUE(sameBits(Scalar.value(X), Obj.value(X)));
        std::vector<double> GradS, GradV, Fused;
        Scalar.gradient(X, GradS);
        Obj.gradient(X, GradV);
        EXPECT_TRUE(bitwiseEqual(GradS, GradV))
            << "seed " << Seed << " SELDON_SIMD=" << settingName(Setting);
        EXPECT_TRUE(sameBits(Obj.valueAndGradient(X, Fused), Obj.value(X)));
        EXPECT_TRUE(bitwiseEqual(Fused, GradS));
      }
    }
  }
}

TEST(SimdEquivalenceTest, ParallelSweepsBitwiseEqualSerial) {
  System Sys = randomSystem(42);
  for (const char *Setting : TierSettings) {
    CompiledObjective Serial = compileAt(Sys, Setting);
    CompiledObjective Parallel = compileAt(Sys, Setting);
    ASSERT_GT(Serial.numShards(), 1u) << "system too small to test sharding";
    ThreadPool Pool(4);
    Parallel.setThreadPool(&Pool);
    std::mt19937 Rng(99);
    for (int Trial = 0; Trial < 10; ++Trial) {
      std::vector<double> X = randomPoint(Rng, Sys.NumVars);
      Serial.project(X);
      std::vector<double> GradS, GradP;
      double ValueS = Serial.valueAndGradient(X, GradS);
      double ValueP = Parallel.valueAndGradient(X, GradP);
      EXPECT_TRUE(sameBits(ValueS, ValueP));
      EXPECT_TRUE(bitwiseEqual(GradS, GradP))
          << "SELDON_SIMD=" << settingName(Setting);
    }
  }
}

TEST(SimdEquivalenceTest, FullAdamTrajectoryMatchesCompiledAcrossJobs) {
  // Every tier is bit-identical to the scalar tier at every iterate, so
  // the whole trajectory — iterate values, iteration count, convergence —
  // matches byte for byte, serial and parallel.
  for (uint32_t Seed : {5u, 7u}) {
    System Sys = randomSystem(Seed);
    SolveResult Reference = runAdam(compileAt(Sys, "off"));
    for (const char *Setting : TierSettings) {
      for (unsigned Jobs : {1u, 4u}) {
        CompiledObjective Obj = compileAt(Sys, Setting);
        ThreadPool Pool(Jobs);
        if (Jobs > 1)
          Obj.setThreadPool(&Pool);
        SolveResult R = runAdam(Obj);
        EXPECT_EQ(R.Iterations, Reference.Iterations);
        EXPECT_EQ(R.Converged, Reference.Converged);
        EXPECT_TRUE(bitwiseEqual(R.X, Reference.X))
            << "seed " << Seed << " SELDON_SIMD=" << settingName(Setting)
            << " jobs " << Jobs;
        EXPECT_TRUE(sameBits(R.FinalObjective, Reference.FinalObjective));
      }
    }
  }
}

TEST(SimdEquivalenceTest, WarmStartTrajectoryMatchesCompiled) {
  System Sys = randomSystem(13);
  std::mt19937 Rng(17);
  std::vector<double> X0 = randomPoint(Rng, Sys.NumVars);
  SolveOptions O;
  O.MaxIterations = 60;
  O.LearningRate = 0.05;
  O.Tolerance = 1e-9;
  SolveResult Reference = AdamOptimizer(O).minimize(compileAt(Sys, "off"), X0);
  for (const char *Setting : TierSettings) {
    CompiledObjective Obj = compileAt(Sys, Setting);
    SolveResult R = AdamOptimizer(O).minimize(Obj, X0);
    EXPECT_EQ(R.Iterations, Reference.Iterations);
    EXPECT_TRUE(bitwiseEqual(R.X, Reference.X))
        << "SELDON_SIMD=" << settingName(Setting);
  }
}

//===----------------------------------------------------------------------===//
// Runtime dispatch
//===----------------------------------------------------------------------===//

TEST(SimdDispatchTest, ScalarFallbackBitwiseEqualAvx2) {
  // SELDON_SIMD=off forces the scalar tier (the only path on non-AVX2
  // hosts) and SELDON_SIMD=avx2 caps an AVX-512 host at AVX2; whichever
  // tier dispatch picks, the solve is byte-identical.
  System Sys = randomSystem(23);
  KernelTier Host;
  {
    ScopedEnv Scoped("SELDON_SIMD", nullptr);
    Host = CompiledObjective::hostTier();
  }
  CompiledObjective Scalar = compileAt(Sys, "off");
  EXPECT_EQ(Scalar.tier(), KernelTier::Scalar);
  EXPECT_FALSE(Scalar.simdActive());
  EXPECT_EQ(compileAt(Sys, "scalar").tier(), KernelTier::Scalar);
  EXPECT_EQ(compileAt(Sys, "0").tier(), KernelTier::Scalar);
  CompiledObjective Capped = compileAt(Sys, "avx2");
  EXPECT_EQ(Capped.tier(),
            Host == KernelTier::Scalar ? KernelTier::Scalar : KernelTier::Avx2);
  CompiledObjective Native = compileAt(Sys, nullptr);
  EXPECT_EQ(Native.tier(), Host);
  EXPECT_EQ(Native.simdActive(), Host != KernelTier::Scalar);

  SolveResult RS = runAdam(Scalar, 60);
  EXPECT_TRUE(bitwiseEqual(runAdam(Capped, 60).X, RS.X));
  EXPECT_TRUE(bitwiseEqual(runAdam(Native, 60).X, RS.X));
}

} // namespace
