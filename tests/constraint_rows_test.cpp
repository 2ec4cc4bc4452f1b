//===- tests/constraint_rows_test.cpp - Flat row and option stores --------===//

#include "constraints/ConstraintGen.h"
#include "constraints/Feedback.h"
#include "propgraph/GraphBuilder.h"
#include "pysem/Project.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

using namespace seldon;
using namespace seldon::solver;

namespace {

using Pairs = std::vector<std::pair<uint32_t, float>>;

Pairs termsOf(std::span<const Term> Ts) {
  Pairs Out;
  for (const Term &T : Ts)
    Out.emplace_back(T.Var, T.Coef);
  return Out;
}

void expectSameRow(const LinearConstraint &A, const LinearConstraint &B) {
  EXPECT_EQ(termsOf(A.Lhs), termsOf(B.Lhs));
  EXPECT_EQ(termsOf(A.Rhs), termsOf(B.Rhs));
  EXPECT_EQ(A.C, B.C);
}

/// Four rows covering every mix of empty and non-empty sides.
ConstraintRows fourRows() {
  ConstraintRows Rows;
  Rows.add({{0, 1.0f}, {1, 0.5f}}, {{2, 0.25f}}, 0.75);
  Rows.add({}, {{3, 2.0f}}, -2.0);
  Rows.add({{4, 3.0f}}, {}, 0.0);
  Rows.add({}, {}, 1.0);
  return Rows;
}

TEST(ConstraintRowsTest, WholeRowAndIncrementalAddsAgree) {
  ConstraintRows Whole = fourRows();
  ASSERT_EQ(Whole.size(), 4u);
  EXPECT_EQ(Whole.numTerms(), 5u);
  EXPECT_EQ(termsOf(Whole[0].Lhs), (Pairs{{0, 1.0f}, {1, 0.5f}}));
  EXPECT_EQ(termsOf(Whole[0].Rhs), (Pairs{{2, 0.25f}}));
  EXPECT_EQ(Whole[0].C, 0.75);
  EXPECT_TRUE(Whole[1].Lhs.empty());
  EXPECT_EQ(Whole[1].Rhs.size(), 1u);
  EXPECT_EQ(Whole[2].Lhs.size(), 1u);
  EXPECT_TRUE(Whole[2].Rhs.empty());
  EXPECT_TRUE(Whole[3].Lhs.empty());
  EXPECT_TRUE(Whole[3].Rhs.empty());
  EXPECT_EQ(Whole[3].C, 1.0);

  // The emitter's form: Lhs runs, closeLhs, Rhs runs, closeRow.
  const std::vector<Term> A = {{0, 1.0f}}, B = {{1, 0.5f}}, R = {{2, 0.25f}};
  ConstraintRows Incremental;
  Incremental.push(A);
  Incremental.push(B);
  Incremental.closeLhs();
  Incremental.push(R);
  Incremental.closeRow(0.75);
  Incremental.closeLhs();
  Incremental.push(std::vector<Term>{{3, 2.0f}});
  Incremental.closeRow(-2.0);
  Incremental.push(std::vector<Term>{{4, 3.0f}});
  Incremental.closeLhs();
  Incremental.closeRow(0.0);
  Incremental.closeLhs();
  Incremental.closeRow(1.0);
  ASSERT_EQ(Incremental.size(), Whole.size());
  EXPECT_EQ(Incremental.numTerms(), Whole.numTerms());
  for (size_t I = 0; I < Whole.size(); ++I)
    expectSameRow(Incremental[I], Whole[I]);
}

TEST(ConstraintRowsTest, EmptyAndMovedFromStoresHoldNoRows) {
  ConstraintRows Empty;
  EXPECT_TRUE(Empty.empty());
  EXPECT_EQ(Empty.size(), 0u);
  EXPECT_EQ(Empty.numTerms(), 0u);
  EXPECT_TRUE(Empty.begin() == Empty.end());

  ConstraintRows Rows = fourRows();
  ConstraintRows Taken = std::move(Rows);
  EXPECT_EQ(Taken.size(), 4u);
  EXPECT_TRUE(Rows.empty()); // NOLINT(bugprone-use-after-move)
}

TEST(ConstraintRowsTest, IterationYieldsTheIndexedViews) {
  ConstraintRows Rows = fourRows();
  size_t R = 0;
  for (const LinearConstraint &Row : Rows) {
    ASSERT_LT(R, Rows.size());
    LinearConstraint At = Rows[R];
    EXPECT_EQ(Row.Lhs.data(), At.Lhs.data());
    EXPECT_EQ(Row.Lhs.size(), At.Lhs.size());
    EXPECT_EQ(Row.Rhs.data(), At.Rhs.data());
    EXPECT_EQ(Row.Rhs.size(), At.Rhs.size());
    EXPECT_EQ(Row.C, At.C);
    ++R;
  }
  EXPECT_EQ(R, Rows.size());
  expectSameRow(Rows.front(), Rows[0]);
}

TEST(ConstraintRowsTest, ACopysViewsPointIntoTheCopy) {
  auto Original = std::make_unique<ConstraintRows>(fourRows());
  ConstraintRows Copy = *Original;
  ASSERT_EQ(Copy.size(), Original->size());
  for (size_t I = 0; I < Copy.size(); ++I) {
    expectSameRow(Copy[I], (*Original)[I]);
    if (!Copy[I].Lhs.empty()) {
      EXPECT_NE(Copy[I].Lhs.data(), (*Original)[I].Lhs.data());
    }
  }
  // The copy outlives its source.
  Original.reset();
  EXPECT_EQ(termsOf(Copy[1].Rhs), (Pairs{{3, 2.0f}}));
  EXPECT_EQ(Copy[1].C, -2.0);
}

TEST(ConstraintRowsTest, AppendMappedRemapsVariablesAndShiftsOffsets) {
  ConstraintRows Rows;
  Rows.add({{7, 1.0f}}, {{8, 1.0f}}, 0.5);
  ConstraintRows Block = fourRows();
  const std::vector<uint32_t> Map = {10, 11, 12, 13, 14};
  Rows.appendMapped(Block, Map);
  ASSERT_EQ(Rows.size(), 1 + Block.size());
  EXPECT_EQ(Rows.numTerms(), 2 + Block.numTerms());
  EXPECT_EQ(termsOf(Rows[0].Lhs), (Pairs{{7, 1.0f}}));
  EXPECT_EQ(termsOf(Rows[0].Rhs), (Pairs{{8, 1.0f}}));
  EXPECT_EQ(Rows[0].C, 0.5);
  for (size_t I = 0; I < Block.size(); ++I) {
    LinearConstraint Got = Rows[1 + I], Want = Block[I];
    ASSERT_EQ(Got.Lhs.size(), Want.Lhs.size());
    ASSERT_EQ(Got.Rhs.size(), Want.Rhs.size());
    for (size_t T = 0; T < Want.Lhs.size(); ++T) {
      EXPECT_EQ(Got.Lhs[T].Var, Map[Want.Lhs[T].Var]);
      EXPECT_EQ(Got.Lhs[T].Coef, Want.Lhs[T].Coef);
    }
    for (size_t T = 0; T < Want.Rhs.size(); ++T) {
      EXPECT_EQ(Got.Rhs[T].Var, Map[Want.Rhs[T].Var]);
      EXPECT_EQ(Got.Rhs[T].Coef, Want.Rhs[T].Coef);
    }
    EXPECT_EQ(Got.C, Want.C);
  }

  // Into an empty store, and of an empty store.
  ConstraintRows Fresh;
  Fresh.appendMapped(Block, Map);
  ASSERT_EQ(Fresh.size(), Block.size());
  expectSameRow(Fresh[0], Rows[1]);
  Fresh.appendMapped(ConstraintRows(), Map);
  EXPECT_EQ(Fresh.size(), Block.size());
  Fresh.add({{1, 1.0f}}, {}, 0.0);
  EXPECT_EQ(Fresh.size(), Block.size() + 1);
  EXPECT_EQ(Fresh[Block.size()].Lhs[0].Var, 1u);
}

//===----------------------------------------------------------------------===//
// Generated systems
//===----------------------------------------------------------------------===//

struct Generated {
  pysem::Project Proj;
  propgraph::PropagationGraph Graph;
  propgraph::RepTable Reps;
  constraints::ConstraintSystem Sys;

  Generated() {
    const pysem::ModuleInfo &M =
        Proj.addModule("app.py", "import w\nimport s\nimport d\n"
                                 "def media(f):\n"
                                 "    f.save(d.snk(s.san(w.src())))\n"
                                 "    y = x.split()\n");
    std::vector<pyast::ParseError> Errors;
    Graph = propgraph::buildModuleGraph(Proj, M, propgraph::BuildOptions(),
                                        &Errors);
    EXPECT_TRUE(Errors.empty());
    Reps.countOccurrences(Graph);
    constraints::GenOptions Opts;
    Opts.RepCutoff = 1;
    Sys = constraints::generateConstraints(
        Graph, Reps, spec::SeedSpec::parse("b: *.split()*\n"), Opts);
  }
};

TEST(ConstraintRowsTest, FeedbackRowsAppendAfterGeneration) {
  Generated G;
  const size_t Rows = G.Sys.Constraints.size();
  ASSERT_GT(Rows, 0u);
  ConstraintRows Before = G.Sys.Constraints;

  constraints::FeedbackSet Set;
  Set.accept("w.src()", propgraph::Role::Source);
  Set.reject("d.snk()", propgraph::Role::Sink);
  constraints::FeedbackOptions Opts;
  Opts.SimilarityDecay = 0.0;
  constraints::FeedbackStats Stats =
      constraints::applyFeedback(G.Sys, G.Reps, Set, Opts);
  ASSERT_EQ(Stats.EvidenceRows, 2u);
  ASSERT_EQ(G.Sys.Constraints.size(), Rows + 2);
  for (size_t I = 0; I < Rows; ++I)
    expectSameRow(G.Sys.Constraints[I], Before[I]);
  // In (rep, role) order: the d.snk() reject, then the w.src() accept.
  EXPECT_EQ(G.Sys.Constraints[Rows].Lhs.size(), 1u);
  EXPECT_TRUE(G.Sys.Constraints[Rows].Rhs.empty());
  EXPECT_TRUE(G.Sys.Constraints[Rows + 1].Lhs.empty());
  EXPECT_EQ(G.Sys.Constraints[Rows + 1].Rhs.size(), 1u);
}

TEST(EventOptionsTest, BuiltFromListsAndByTheGenerator) {
  constraints::EventOptions Lists = {{4, 2}, {}, {7}};
  ASSERT_EQ(Lists.size(), 3u);
  EXPECT_EQ(std::vector<propgraph::RepId>(Lists[0].begin(), Lists[0].end()),
            (std::vector<propgraph::RepId>{4, 2}));
  EXPECT_TRUE(Lists[1].empty());
  EXPECT_EQ(Lists[2].size(), 1u);
  size_t E = 0;
  for (std::span<const propgraph::RepId> Options : Lists) {
    EXPECT_EQ(Options.data(), Lists[E].data());
    EXPECT_EQ(Options.size(), Lists[E].size());
    ++E;
  }
  EXPECT_EQ(E, 3u);
  EXPECT_EQ(constraints::EventOptions().size(), 0u);

  // One entry per event: its options most to least specific, empty for an
  // event whose every option is blacklisted.
  Generated G;
  const constraints::EventOptions &Options = G.Sys.EventReps;
  ASSERT_EQ(Options.size(), G.Graph.numEvents());
  size_t Empty = 0, Candidates = 0;
  for (const propgraph::Event &Ev : G.Graph.events()) {
    std::vector<propgraph::RepId> Want;
    for (const std::string &Rep : Ev.Reps) {
      propgraph::RepId Id;
      if (Rep.find(".split()") == std::string::npos &&
          G.Reps.lookup(Rep, Id))
        Want.push_back(Id);
    }
    std::span<const propgraph::RepId> Got = Options[Ev.Id];
    EXPECT_EQ(std::vector<propgraph::RepId>(Got.begin(), Got.end()), Want)
        << Ev.primaryRep();
    Empty += Got.empty();
    Candidates += !Got.empty();
  }
  EXPECT_GT(Empty, 0u) << "the blacklisted split() leaves an empty entry";
  EXPECT_EQ(Candidates, G.Sys.NumCandidates);

  propgraph::RepId Specific, General;
  ASSERT_TRUE(G.Reps.lookup("media(param f).save()", Specific));
  ASSERT_TRUE(G.Reps.lookup("f.save()", General));
  bool Found = false;
  for (std::span<const propgraph::RepId> Entry : Options)
    if (Entry.size() == 2 && Entry[0] == Specific) {
      EXPECT_EQ(Entry[1], General);
      Found = true;
    }
  EXPECT_TRUE(Found) << "the save() call keeps both options, in order";
}

} // namespace
