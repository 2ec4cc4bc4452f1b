//===- tests/merlin_test.cpp - Tests for the Merlin baseline --------------===//

#include "merlin/GibbsSampler.h"
#include "merlin/LoopyBeliefPropagation.h"
#include "merlin/MerlinPipeline.h"
#include "propgraph/GraphBuilder.h"
#include "pysem/Project.h"

#include <gtest/gtest.h>

using namespace seldon;
using namespace seldon::merlin;
using namespace seldon::propgraph;

namespace {

//===----------------------------------------------------------------------===//
// Factor graph + exact sanity cases for BP and Gibbs
//===----------------------------------------------------------------------===//

TEST(FactorGraphTest, BuildAndIndex) {
  FactorGraph G;
  VarIdx A = G.addVar("a"), B = G.addVar("b");
  G.addUnary(A, 0.3, 0.7);
  G.addFactor(Factor{{A, B}, {1.0, 1.0, 1.0, 0.1}});
  EXPECT_EQ(G.numVars(), 2u);
  EXPECT_EQ(G.numFactors(), 2u);
  const auto &Index = G.varToFactors();
  EXPECT_EQ(Index[A].size(), 2u);
  EXPECT_EQ(Index[B].size(), 1u);
}

TEST(LoopyBpTest, SingleUnaryMarginal) {
  FactorGraph G;
  VarIdx A = G.addVar("a");
  G.addUnary(A, 0.25, 0.75);
  LoopyBeliefPropagation Bp;
  InferenceResult R = Bp.run(G);
  EXPECT_TRUE(R.Converged);
  EXPECT_NEAR(R.Marginals[A], 0.75, 1e-6);
}

TEST(LoopyBpTest, ExactOnTreePair) {
  // p(a, b) ∝ prior(a) * f(a, b); marginal of b computable by hand.
  // prior(a) = [0.5, 0.5]; f penalizes (a=1, b=1) with 0.1:
  // p(b=1) = (0.5*1 + 0.5*0.1) / (0.5*1 + 0.5*1 + 0.5*1 + 0.5*0.1)
  FactorGraph G;
  VarIdx A = G.addVar("a"), B = G.addVar("b");
  G.addUnary(A, 0.5, 0.5);
  G.addFactor(Factor{{A, B}, {1.0, 1.0, 1.0, 0.1}});
  LoopyBeliefPropagation Bp;
  InferenceResult R = Bp.run(G);
  double Z = 0.5 + 0.5 + 0.5 + 0.5 * 0.1;
  double PB1 = (0.5 + 0.5 * 0.1) / Z;
  EXPECT_NEAR(R.Marginals[B], PB1, 1e-4);
}

TEST(LoopyBpTest, HardEvidencePropagates) {
  // a pinned to 1; f strongly penalizes (a=1, b=1) -> b must be ~0.
  FactorGraph G;
  VarIdx A = G.addVar("a"), B = G.addVar("b");
  G.addUnary(A, 0.0, 1.0);
  G.addFactor(Factor{{A, B}, {1.0, 1.0, 1.0, 0.001}});
  LoopyBeliefPropagation Bp;
  InferenceResult R = Bp.run(G);
  EXPECT_NEAR(R.Marginals[A], 1.0, 1e-6);
  EXPECT_LT(R.Marginals[B], 0.01);
}

TEST(LoopyBpTest, TripleFactorFig6a) {
  // src=1, snk=1 pinned; Fig. 6a factor penalizes mid=0 -> mid rises.
  FactorGraph G;
  VarIdx S = G.addVar("src"), M = G.addVar("mid"), T = G.addVar("snk");
  G.addUnary(S, 0.0, 1.0);
  G.addUnary(T, 0.0, 1.0);
  G.addUnary(M, 0.5, 0.5);
  Factor F;
  F.Vars = {S, M, T};
  F.Table = {1, 1, 1, 1, 1, 0.1, 1, 1}; // (s=1, m=0, t=1) == index 5.
  G.addFactor(std::move(F));
  LoopyBeliefPropagation Bp;
  InferenceResult R = Bp.run(G);
  // Exact: p(m=1)=0.5 / (0.5 + 0.5*0.1).
  EXPECT_NEAR(R.Marginals[M], 0.5 / 0.55, 1e-4);
}

TEST(LoopyBpTest, TimeoutReported) {
  // A frustrated loop with a zero-second budget must flag a timeout.
  FactorGraph G;
  VarIdx V[3];
  for (int I = 0; I < 3; ++I)
    V[I] = G.addVar("v" + std::to_string(I));
  for (int I = 0; I < 3; ++I)
    G.addFactor(Factor{{V[I], V[(I + 1) % 3]}, {1.0, 0.2, 0.2, 1.0}});
  BpOptions O;
  O.TimeoutSeconds = 1e-9;
  LoopyBeliefPropagation Bp(O);
  InferenceResult R = Bp.run(G);
  EXPECT_TRUE(R.TimedOut);
}

TEST(GibbsTest, MatchesExactMarginalOnPair) {
  FactorGraph G;
  VarIdx A = G.addVar("a"), B = G.addVar("b");
  G.addUnary(A, 0.5, 0.5);
  G.addFactor(Factor{{A, B}, {1.0, 1.0, 1.0, 0.1}});
  GibbsOptions O;
  O.BurnIn = 200;
  O.Samples = 4000;
  GibbsSampler Sampler(O);
  InferenceResult R = Sampler.run(G);
  double Z = 0.5 + 0.5 + 0.5 + 0.5 * 0.1;
  EXPECT_NEAR(R.Marginals[B], (0.5 + 0.05) / Z, 0.05);
}

TEST(GibbsTest, HardFactorsFreezeVariables) {
  FactorGraph G;
  VarIdx A = G.addVar("a");
  G.addUnary(A, 0.0, 1.0);
  GibbsSampler Sampler;
  InferenceResult R = Sampler.run(G);
  EXPECT_NEAR(R.Marginals[A], 1.0, 1e-9);
}

TEST(GibbsTest, DeterministicInSeed) {
  FactorGraph G;
  VarIdx A = G.addVar("a"), B = G.addVar("b");
  G.addUnary(A, 0.4, 0.6);
  G.addFactor(Factor{{A, B}, {1.0, 0.5, 0.5, 1.0}});
  GibbsSampler S1, S2;
  EXPECT_EQ(S1.run(G).Marginals, S2.run(G).Marginals);
}

//===----------------------------------------------------------------------===//
// Merlin end-to-end
//===----------------------------------------------------------------------===//

struct MerlinFixture {
  pysem::Project Proj;
  PropagationGraph Graph;

  explicit MerlinFixture(std::string_view Source) {
    const pysem::ModuleInfo &M = Proj.addModule("m/app.py", Source);
    std::vector<pyast::ParseError> Errors;
    Graph = buildModuleGraph(Proj, M, BuildOptions(), &Errors);
    EXPECT_TRUE(Errors.empty());
  }
};

TEST(MerlinPipelineTest, LearnsSanitizerBetweenSeededEndpoints) {
  MerlinFixture F("import web\nimport mid\nimport db\n"
                  "db.exec(mid.filter(web.read()))\n");
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  MerlinResult R = runMerlin(F.Graph, Seed);
  EXPECT_GT(R.Learned.score("mid.filter()", Role::Sanitizer), 0.6)
      << "Fig. 6a must raise the sanitizer marginal";
  EXPECT_GT(R.NumFactors, 0u);
}

TEST(MerlinPipelineTest, SeedsPinnedInMarginals) {
  MerlinFixture F("import web\nimport db\n"
                  "db.exec(web.read())\n");
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  MerlinResult R = runMerlin(F.Graph, Seed);
  EXPECT_NEAR(R.Learned.score("web.read()", Role::Source), 1.0, 1e-3);
  EXPECT_NEAR(R.Learned.score("db.exec()", Role::Sink), 1.0, 1e-3);
  EXPECT_LT(R.Learned.score("web.read()", Role::Sink), 0.05);
}

TEST(MerlinPipelineTest, CollapsedVsUncollapsedCandidates) {
  // Two occurrences of the same call: collapsed mode merges them into one
  // candidate; uncollapsed keeps per-event nodes but variables are still
  // per representation, so candidate counts match — the factor counts
  // differ instead.
  MerlinFixture F("import web\nimport db\n"
                  "db.exec(web.read())\n"
                  "db.exec(web.read())\n");
  spec::SeedSpec Seed;
  MerlinOptions Collapsed;
  Collapsed.Collapsed = true;
  MerlinOptions Uncollapsed;
  Uncollapsed.Collapsed = false;
  MerlinResult RC = runMerlin(F.Graph, Seed, Collapsed);
  MerlinResult RU = runMerlin(F.Graph, Seed, Uncollapsed);
  EXPECT_EQ(RC.NumCandidates[0], RU.NumCandidates[0]);
  EXPECT_GE(RU.NumFactors, RC.NumFactors);
}

TEST(MerlinPipelineTest, BlacklistExcludesCandidates) {
  MerlinFixture F("import web\nimport db\n"
                  "db.exec(web.read().strip())\n");
  spec::SeedSpec Seed = spec::SeedSpec::parse("b: *.strip()\n");
  MerlinResult R = runMerlin(F.Graph, Seed);
  EXPECT_FALSE(R.Learned.hasRep("web.read().strip()"));
}

TEST(MerlinPipelineTest, SanitizerPriorReflectsPosition) {
  // An API between a potential source and sink gets a higher sanitizer
  // prior than a dangling one (§6.3).
  MerlinFixture F("import web\nimport mid\nimport db\nimport lone\n"
                  "db.exec(mid.filter(web.read()))\n"
                  "lone.helper()\n");
  spec::SeedSpec Seed;
  MerlinResult R = runMerlin(F.Graph, Seed);
  EXPECT_GT(R.Learned.score("mid.filter()", Role::Sanitizer),
            R.Learned.score("lone.helper()", Role::Sanitizer));
}

TEST(MerlinPipelineTest, ReportsTiming) {
  MerlinFixture F("import web\nimport db\ndb.exec(web.read())\n");
  spec::SeedSpec Seed;
  MerlinResult R = runMerlin(F.Graph, Seed);
  EXPECT_GE(R.Seconds, 0.0);
  EXPECT_GT(R.Iterations, 0);
}

} // namespace
