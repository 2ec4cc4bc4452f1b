//===- tests/property_test.cpp - Cross-module property sweeps -------------===//
//
// Property-style invariants checked across randomized inputs: generated
// corpora must always parse, build acyclic graphs, and produce well-formed
// constraint systems; the pipeline must be bit-deterministic; the lexer
// must terminate with sane positions on arbitrary printable inputs; BP and
// Gibbs must agree on random tree-shaped factor graphs.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "constraints/ConstraintGen.h"
#include "corpus/CorpusGenerator.h"
#include "infer/Pipeline.h"
#include "merlin/GibbsSampler.h"
#include "merlin/LoopyBeliefPropagation.h"
#include "propgraph/GraphBuilder.h"
#include "pyast/Lexer.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

//===----------------------------------------------------------------------===//
// Corpus -> graph -> constraints invariants, swept over generator seeds
//===----------------------------------------------------------------------===//

class CorpusSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorpusSweepTest, EndToEndInvariants) {
  corpus::Corpus Data = testutil::makeCorpus(GetParam());

  PropagationGraph Global;
  for (const pysem::Project &P : Data.Projects) {
    std::vector<pyast::ParseError> Errors;
    PropagationGraph G = buildProjectGraph(P, BuildOptions(), &Errors);
    EXPECT_EQ(Errors.size(), 0u) << "corpus seed " << GetParam();
    EXPECT_TRUE(G.isAcyclic());
    Global.append(G);
  }

  // Every event: non-empty reps, sane candidates, valid file index.
  for (const Event &E : Global.events()) {
    EXPECT_FALSE(E.Reps.empty());
    EXPECT_NE(E.Candidates, 0);
    EXPECT_LT(E.FileIdx, Global.files().size());
    if (E.Kind != EventKind::Call) {
      EXPECT_EQ(E.Candidates, SourceMask);
    }
  }

  // Edge symmetry: successors/predecessors agree.
  size_t SuccCount = 0, PredCount = 0;
  for (const Event &E : Global.events()) {
    SuccCount += Global.successors(E.Id).size();
    PredCount += Global.predecessors(E.Id).size();
  }
  EXPECT_EQ(SuccCount, PredCount);
  EXPECT_EQ(SuccCount, Global.numEdges());

  // Constraint system: every term references a live variable; coefficients
  // are positive and at most 1 (backoff averages).
  RepTable Reps;
  Reps.countOccurrences(Global);
  constraints::ConstraintSystem Sys =
      constraints::generateConstraints(Global, Reps, Data.Seed);
  for (const solver::LinearConstraint &C : Sys.Constraints) {
    EXPECT_FALSE(C.Lhs.empty());
    EXPECT_DOUBLE_EQ(C.C, 0.75);
    for (const solver::Term &T : C.Lhs) {
      EXPECT_LT(T.Var, Sys.Vars.numVars());
      EXPECT_GT(T.Coef, 0.0f);
      EXPECT_LE(T.Coef, 1.0f);
    }
    for (const solver::Term &T : C.Rhs)
      EXPECT_LT(T.Var, Sys.Vars.numVars());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===//
// Pipeline determinism
//===----------------------------------------------------------------------===//

TEST(DeterminismTest, PipelineIsBitDeterministic) {
  auto RunOnce = [] {
    corpus::Corpus Data = testutil::makeCorpus(77, /*NumProjects=*/10);
    infer::PipelineOptions P;
    P.Solve.MaxIterations = 300;
    infer::Session S(P);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    return S.solve();
  };
  infer::PipelineResult A = RunOnce();
  infer::PipelineResult B = RunOnce();
  ASSERT_EQ(A.Solve.X.size(), B.Solve.X.size());
  for (size_t I = 0; I < A.Solve.X.size(); ++I)
    EXPECT_DOUBLE_EQ(A.Solve.X[I], B.Solve.X[I]) << "variable " << I;
  EXPECT_EQ(A.System.Constraints.size(), B.System.Constraints.size());
  EXPECT_EQ(A.Graph->numEvents(), B.Graph->numEvents());
  EXPECT_EQ(A.Graph->numEdges(), B.Graph->numEdges());
}

//===----------------------------------------------------------------------===//
// Lexer robustness on arbitrary printable inputs
//===----------------------------------------------------------------------===//

class LexerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LexerFuzzTest, TerminatesWithMonotonicPositions) {
  Rng Random(GetParam());
  // Printable soup with structural characters over-represented.
  static const char Alphabet[] =
      "abcdefXYZ0189_ ()[]{}:.,+-*/%<>=!&|^~#'\"\\\n\t";
  std::string Source;
  size_t Length = 64 + Random.nextBelow(512);
  for (size_t I = 0; I < Length; ++I)
    Source += Alphabet[Random.nextBelow(sizeof(Alphabet) - 1)];

  pyast::Lexer Lexer(Source);
  std::vector<pyast::Token> Tokens = Lexer.lexAll();
  ASSERT_FALSE(Tokens.empty());
  EXPECT_EQ(Tokens.back().Kind, pyast::TokenKind::EndOfFile);
  uint32_t PrevLine = 1;
  for (const pyast::Token &T : Tokens) {
    EXPECT_GE(T.Line, PrevLine);
    PrevLine = std::max(PrevLine, T.Line);
    EXPECT_GE(T.Col, 1u);
  }
  // Parsing the soup must terminate too (errors are fine, hangs are not).
  pyast::AstContext Ctx;
  std::vector<pyast::ParseError> Errors;
  pyast::ModuleNode *M = pyast::parseSource(Ctx, Source, &Errors);
  EXPECT_NE(M, nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LexerFuzzTest,
                         ::testing::Range<uint64_t>(100, 140));

//===----------------------------------------------------------------------===//
// BP vs Gibbs on random tree factor graphs (BP is exact on trees)
//===----------------------------------------------------------------------===//

class InferenceAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InferenceAgreementTest, BpMatchesGibbsOnTrees) {
  Rng Random(GetParam());
  merlin::FactorGraph G;
  int NumVars = 4 + static_cast<int>(Random.nextBelow(4));
  std::vector<merlin::VarIdx> Vars;
  for (int I = 0; I < NumVars; ++I) {
    merlin::VarIdx V = G.addVar("v" + std::to_string(I));
    double P1 = 0.2 + 0.6 * Random.nextDouble();
    G.addUnary(V, 1.0 - P1, P1);
    Vars.push_back(V);
  }
  // Tree topology: each var (except the root) gets one pairwise factor to
  // a random earlier var.
  for (int I = 1; I < NumVars; ++I) {
    merlin::VarIdx Parent = Vars[Random.nextBelow(I)];
    double Penalty = 0.1 + 0.5 * Random.nextDouble();
    G.addFactor(merlin::Factor{{Parent, Vars[I]},
                               {1.0, 1.0, 1.0, Penalty}});
  }

  merlin::LoopyBeliefPropagation Bp;
  merlin::InferenceResult RB = Bp.run(G);
  EXPECT_TRUE(RB.Converged);

  merlin::GibbsOptions GO;
  GO.BurnIn = 300;
  GO.Samples = 6000;
  GO.Seed = GetParam() * 31 + 7;
  merlin::GibbsSampler Gibbs(GO);
  merlin::InferenceResult RG = Gibbs.run(G);

  for (int I = 0; I < NumVars; ++I)
    EXPECT_NEAR(RB.Marginals[Vars[I]], RG.Marginals[Vars[I]], 0.06)
        << "var " << I << " seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceAgreementTest,
                         ::testing::Values(11, 22, 33, 44, 55));

} // namespace
