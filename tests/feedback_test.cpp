//===- tests/feedback_test.cpp - Feedback-weighted inference --------------===//
//
// The feedback evidence rows (constraints/Feedback.h): exact row shapes,
// subgradient-level monotonicity (a reject only ever adds downward pull,
// an accept only upward), propagation strictly along shared backoff sets,
// byte-identity of the empty-feedback path with the passive solve, and
// byte-identity of feedback-weighted solves across kernel tiers.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "TestCorpus.h"

#include "constraints/Feedback.h"
#include "infer/Pipeline.h"
#include "spec/SpecIO.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace seldon;
using namespace seldon::constraints;

namespace {

//===----------------------------------------------------------------------===//
// Hand-built systems: exact row shapes and propagation scope
//===----------------------------------------------------------------------===//

struct TinySystem {
  // alpha and beta share one event's surviving backoff set; gamma is
  // isolated (a singleton backoff set never propagates).
  propgraph::RepTable Reps = testutil::repTableOf(
      {{"pkg.alpha()", "pkg.beta()"}, {"pkg.gamma()"}});
  ConstraintSystem Sys;
  propgraph::RepId A, B, C;
  VarId VarASource, VarBSource, VarCSource, VarBSink;

  TinySystem() {
    A = testutil::repIdOf(Reps, "pkg.alpha()");
    B = testutil::repIdOf(Reps, "pkg.beta()");
    C = testutil::repIdOf(Reps, "pkg.gamma()");
    VarASource = Sys.Vars.varFor(A, propgraph::Role::Source);
    VarBSource = Sys.Vars.varFor(B, propgraph::Role::Source);
    VarCSource = Sys.Vars.varFor(C, propgraph::Role::Source);
    VarBSink = Sys.Vars.varFor(B, propgraph::Role::Sink);
    Sys.Kept.assign(Reps.size(), 1);
  }
};

TEST(FeedbackTest, DirectRowShapes) {
  TinySystem T;
  FeedbackSet Set;
  Set.accept("pkg.alpha()", propgraph::Role::Source);
  Set.reject("pkg.beta()", propgraph::Role::Sink);
  Set.reject("pkg.unknown()", propgraph::Role::Source);

  FeedbackOptions Opts;
  Opts.AcceptWeight = 2.0;
  Opts.RejectWeight = 3.0;
  Opts.SimilarityDecay = 0.0; // Direct rows only.
  size_t Before = T.Sys.Constraints.size();
  FeedbackStats Stats = applyFeedback(T.Sys, T.Reps, Set, Opts);

  EXPECT_EQ(Stats.Matched, 2u);
  EXPECT_EQ(Stats.Unmatched, 1u);
  EXPECT_EQ(Stats.EvidenceRows, 2u);
  EXPECT_EQ(Stats.PropagatedRows, 0u);
  ASSERT_EQ(T.Sys.Constraints.size(), Before + 2);

  // entries() order is (rep, role): alpha/source first, beta/sink second.
  const solver::LinearConstraint &Accept = T.Sys.Constraints[Before];
  EXPECT_TRUE(Accept.Lhs.empty());
  ASSERT_EQ(Accept.Rhs.size(), 1u);
  EXPECT_EQ(Accept.Rhs[0].Var, T.VarASource);
  EXPECT_FLOAT_EQ(Accept.Rhs[0].Coef, 2.0f);
  EXPECT_DOUBLE_EQ(Accept.C, -2.0); // Hinge w*(1-x): zero at x = 1.

  const solver::LinearConstraint &Reject = T.Sys.Constraints[Before + 1];
  ASSERT_EQ(Reject.Lhs.size(), 1u);
  EXPECT_TRUE(Reject.Rhs.empty());
  EXPECT_EQ(Reject.Lhs[0].Var, T.VarBSink);
  EXPECT_FLOAT_EQ(Reject.Lhs[0].Coef, 3.0f);
  EXPECT_DOUBLE_EQ(Reject.C, 0.0); // Hinge w*x: zero at x = 0.
}

TEST(FeedbackTest, PropagatesOnlyAcrossSharedBackoffSets) {
  TinySystem T;
  FeedbackSet Set;
  Set.accept("pkg.alpha()", propgraph::Role::Source);

  FeedbackOptions Opts;
  Opts.AcceptWeight = 1.0;
  Opts.SimilarityDecay = 0.5;
  size_t Before = T.Sys.Constraints.size();
  FeedbackStats Stats = applyFeedback(T.Sys, T.Reps, Set, Opts);

  // One direct row (alpha/source) and exactly one propagated row:
  // beta/source at the decayed weight. gamma shares no event with alpha,
  // and beta/sink is a different role — neither receives evidence.
  EXPECT_EQ(Stats.EvidenceRows, 1u);
  EXPECT_EQ(Stats.PropagatedRows, 1u);
  ASSERT_EQ(T.Sys.Constraints.size(), Before + 2);
  const solver::LinearConstraint &Prop = T.Sys.Constraints[Before + 1];
  ASSERT_EQ(Prop.Rhs.size(), 1u);
  EXPECT_EQ(Prop.Rhs[0].Var, T.VarBSource);
  EXPECT_FLOAT_EQ(Prop.Rhs[0].Coef, 0.5f);
  EXPECT_DOUBLE_EQ(Prop.C, -0.5);
}

TEST(FeedbackTest, DirectVerdictOverridesPropagation) {
  TinySystem T;
  FeedbackSet Set;
  Set.accept("pkg.alpha()", propgraph::Role::Source);
  Set.reject("pkg.beta()", propgraph::Role::Source);

  FeedbackStats Stats = applyFeedback(T.Sys, T.Reps, Set);
  // Both co-backoff representations carry direct verdicts, so nothing
  // propagates — a user's explicit reject is never diluted by a
  // neighbor's accept.
  EXPECT_EQ(Stats.EvidenceRows, 2u);
  EXPECT_EQ(Stats.PropagatedRows, 0u);
}

TEST(FeedbackTest, ZeroDecayDisablesPropagation) {
  TinySystem T;
  FeedbackSet Set;
  Set.accept("pkg.alpha()", propgraph::Role::Source);
  FeedbackOptions Opts;
  Opts.SimilarityDecay = 0.0;
  FeedbackStats Stats = applyFeedback(T.Sys, T.Reps, Set, Opts);
  EXPECT_EQ(Stats.EvidenceRows, 1u);
  EXPECT_EQ(Stats.PropagatedRows, 0u);
}

TEST(FeedbackTest, LastVerdictWinsAndEntriesAreOrdered) {
  FeedbackSet Set;
  Set.accept("z()", propgraph::Role::Sink);
  Set.reject("a()", propgraph::Role::Source);
  Set.accept("a()", propgraph::Role::Source); // Overrides the reject.
  EXPECT_EQ(Set.size(), 2u);
  EXPECT_EQ(Set.verdict("a()", propgraph::Role::Source), 1);
  EXPECT_EQ(Set.verdict("z()", propgraph::Role::Sink), 1);
  EXPECT_EQ(Set.verdict("a()", propgraph::Role::Sink), 0);
  std::vector<FeedbackEntry> Entries = Set.entries();
  ASSERT_EQ(Entries.size(), 2u);
  EXPECT_EQ(Entries[0].Rep, "a()");
  EXPECT_TRUE(Entries[0].Accepted);
  EXPECT_EQ(Entries[1].Rep, "z()");
}

//===----------------------------------------------------------------------===//
// Subgradient-level monotonicity: the exact guarantee behind "reject never
// raises, accept never lowers".
//===----------------------------------------------------------------------===//

TEST(FeedbackTest, SubgradientsAreMonotoneAtInteriorPoints) {
  corpus::Corpus Data = testutil::makeCorpus(13, 6);
  infer::PipelineOptions P;
  P.Solve.MaxIterations = 1; // Only the generated system matters here.
  infer::Session S(P);
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  ConstraintSystem Passive = S.system();

  // Pick a deterministic unpinned variable to judge.
  std::vector<uint8_t> Pinned(Passive.Vars.numVars(), 0);
  for (const auto &[Var, Value] : Passive.Pinned) {
    (void)Value;
    Pinned[Var] = 1;
  }
  VarId Judged = 0;
  bool Found = false;
  for (VarId V = 0; V < Passive.Vars.numVars() && !Found; ++V)
    if (!Pinned[V]) {
      Judged = V;
      Found = true;
    }
  ASSERT_TRUE(Found);
  const std::string &Rep = S.reps().repString(Passive.Vars.repOf(Judged));
  propgraph::Role Role = Passive.Vars.roleOf(Judged);

  const double W = 2.5;
  FeedbackOptions Opts;
  Opts.AcceptWeight = Opts.RejectWeight = W;
  Opts.SimilarityDecay = 0.0; // Isolate the direct-row effect.

  ConstraintSystem Accepted = Passive;
  FeedbackSet AcceptSet;
  AcceptSet.accept(Rep, Role);
  ASSERT_EQ(applyFeedback(Accepted, S.reps(), AcceptSet, Opts).Matched, 1u);

  ConstraintSystem Rejected = Passive;
  FeedbackSet RejectSet;
  RejectSet.reject(Rep, Role);
  ASSERT_EQ(applyFeedback(Rejected, S.reps(), RejectSet, Opts).Matched, 1u);

  const double Lambda = 0.1;
  solver::CompiledObjective ObjP = Passive.makeCompiledObjective(Lambda);
  solver::CompiledObjective ObjA = Accepted.makeCompiledObjective(Lambda);
  solver::CompiledObjective ObjR = Rejected.makeCompiledObjective(Lambda);

  // At any interior point the accept row adds exactly -w to the judged
  // variable's subgradient and the reject row exactly +w; every other
  // coordinate is bit-identical to the passive gradient.
  for (double Point : {0.25, 0.5, 0.75}) {
    std::vector<double> X(Passive.Vars.numVars(), Point);
    ObjP.project(X);
    std::vector<double> GP, GA, GR;
    ObjP.gradient(X, GP);
    ObjA.gradient(X, GA);
    ObjR.gradient(X, GR);
    ASSERT_EQ(GP.size(), GA.size());
    ASSERT_EQ(GP.size(), GR.size());
    for (size_t V = 0; V < GP.size(); ++V) {
      if (V == Judged) {
        EXPECT_DOUBLE_EQ(GA[V], GP[V] - W) << "x = " << Point;
        EXPECT_DOUBLE_EQ(GR[V], GP[V] + W) << "x = " << Point;
      } else {
        EXPECT_EQ(GA[V], GP[V]) << "var " << V;
        EXPECT_EQ(GR[V], GP[V]) << "var " << V;
      }
    }
  }

  // At the satisfied endpoints the evidence hinge is inactive: an accept
  // adds nothing at x = 1, a reject nothing at x = 0 — feedback never
  // over-pushes a variable that already agrees.
  std::vector<double> AtOne(Passive.Vars.numVars(), 1.0);
  ObjP.project(AtOne);
  std::vector<double> GP1, GA1;
  ObjP.gradient(AtOne, GP1);
  ObjA.gradient(AtOne, GA1);
  EXPECT_EQ(GA1[Judged], GP1[Judged]);
  std::vector<double> AtZero(Passive.Vars.numVars(), 0.0);
  ObjP.project(AtZero);
  std::vector<double> GP0, GR0;
  ObjP.gradient(AtZero, GP0);
  ObjR.gradient(AtZero, GR0);
  EXPECT_EQ(GR0[Judged], GP0[Judged]);
}

//===----------------------------------------------------------------------===//
// End-to-end: solves move in the verdict's direction, the empty set is the
// passive path byte for byte, and all kernel tiers agree.
//===----------------------------------------------------------------------===//

struct SolveSetup {
  explicit SolveSetup(int Projects = 6)
      : Data(testutil::makeCorpus(13, Projects)) {}

  corpus::Corpus Data;

  infer::PipelineResult solveWith(const FeedbackSet *Set,
                                  double Weight = 1.0) {
    infer::PipelineOptions P;
    P.Solve.MaxIterations = 300;
    P.Feedback = Set;
    P.FeedbackOpts.AcceptWeight = Weight;
    P.FeedbackOpts.RejectWeight = Weight;
    infer::Session S(P);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    return S.solve();
  }
};

TEST(FeedbackTest, EmptyFeedbackIsByteIdenticalToPassive) {
  SolveSetup Setup;
  infer::PipelineResult Passive = Setup.solveWith(nullptr);
  EXPECT_FALSE(Passive.UsedFeedback);
  FeedbackSet Empty;
  infer::PipelineResult WithEmpty = Setup.solveWith(&Empty);
  EXPECT_FALSE(WithEmpty.UsedFeedback);
  EXPECT_EQ(WithEmpty.System.Constraints.size(),
            Passive.System.Constraints.size());
  EXPECT_EQ(spec::writeLearnedSpec(WithEmpty.Learned, 0.0),
            spec::writeLearnedSpec(Passive.Learned, 0.0));
}

TEST(FeedbackTest, SolvesMoveInTheVerdictDirection) {
  // The small corpus solves every unpinned score to an extreme; at 16
  // projects the constraint structure leaves a genuinely mid-range
  // sanitizer score, where both directions have room to move.
  SolveSetup Setup(16);
  infer::PipelineResult Passive = Setup.solveWith(nullptr);

  // Judge a deterministic mid-range variable.
  std::vector<uint8_t> Pinned(Passive.System.Vars.numVars(), 0);
  for (const auto &[Var, Value] : Passive.System.Pinned) {
    (void)Value;
    Pinned[Var] = 1;
  }
  VarId Judged = 0;
  bool Found = false;
  for (VarId V = 0; V < Passive.System.Vars.numVars(); ++V) {
    if (Pinned[V])
      continue;
    double Score = Passive.Solve.X[V];
    if (Score > 0.15 && Score < 0.85) {
      Judged = V;
      Found = true;
      break;
    }
  }
  ASSERT_TRUE(Found) << "no mid-range score variable in the test corpus";
  const std::string &Rep =
      Passive.Reps.repString(Passive.System.Vars.repOf(Judged));
  propgraph::Role Role = Passive.System.Vars.roleOf(Judged);
  double Before = Passive.Solve.X[Judged];

  FeedbackSet Accept;
  Accept.accept(Rep, Role);
  infer::PipelineResult Up =
      Setup.solveWith(&Accept, /*Weight=*/5.0);
  EXPECT_TRUE(Up.UsedFeedback);
  EXPECT_EQ(Up.Feedback.Matched, 1u);
  EXPECT_GT(Up.Solve.X[Judged], Before)
      << Rep << " score did not rise after an accept";

  FeedbackSet Reject;
  Reject.reject(Rep, Role);
  infer::PipelineResult Down =
      Setup.solveWith(&Reject, /*Weight=*/5.0);
  EXPECT_LT(Down.Solve.X[Judged], Before)
      << Rep << " score did not fall after a reject";
}

TEST(FeedbackTest, FeedbackSolvesAreByteIdenticalAcrossBackends) {
  SolveSetup Setup;
  FeedbackSet Set;
  // Judge a couple of reps the corpus is guaranteed to score (seeded reps
  // have pinned variables but still produce matched evidence rows only if
  // present; use whatever the system scored).
  infer::PipelineResult Probe = Setup.solveWith(nullptr);
  ASSERT_GT(Probe.System.Vars.numVars(), 2u);
  Set.accept(Probe.Reps.repString(Probe.System.Vars.repOf(0)),
             Probe.System.Vars.roleOf(0));
  Set.reject(Probe.Reps.repString(Probe.System.Vars.repOf(1)),
             Probe.System.Vars.roleOf(1));

  // One spec per kernel tier (SELDON_SIMD=off, avx2, unset).
  std::vector<std::string> Specs;
  for (const char *Setting : testutil::SimdTierSettings) {
    testutil::ScopedEnv Tier("SELDON_SIMD", Setting);
    Specs.push_back(
        spec::writeLearnedSpec(Setup.solveWith(&Set).Learned, 0.0));
  }
  EXPECT_EQ(Specs[0], Specs[1]);
  EXPECT_EQ(Specs[0], Specs[2]);
}

} // namespace
