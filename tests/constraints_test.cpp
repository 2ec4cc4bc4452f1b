//===- tests/constraints_test.cpp - Tests for Fig. 4 constraint gen -------===//

#include "constraints/ConstraintGen.h"
#include "constraints/ConstraintShard.h"
#include "propgraph/GraphBuilder.h"
#include "pysem/Project.h"

#include <gtest/gtest.h>

using namespace seldon;
using namespace seldon::constraints;
using namespace seldon::propgraph;

namespace {

struct GenFixture {
  pysem::Project Proj;
  PropagationGraph Graph;
  RepTable Reps;
  spec::SeedSpec Seed;
  ConstraintSystem Sys;

  GenFixture(std::string_view Source, std::string_view SeedText,
             GenOptions Opts = lowCutoff()) {
    const pysem::ModuleInfo &M = Proj.addModule("app.py", Source);
    std::vector<pyast::ParseError> Errors;
    Graph = buildModuleGraph(Proj, M, BuildOptions(), &Errors);
    EXPECT_TRUE(Errors.empty());
    Reps.countOccurrences(Graph);
    Seed = spec::SeedSpec::parse(SeedText);
    Sys = generateConstraints(Graph, Reps, Seed, Opts);
  }

  static GenOptions lowCutoff() {
    GenOptions O;
    O.RepCutoff = 1; // Single-file fixtures: every rep is rare.
    return O;
  }

  /// Number of constraints whose LHS mentions (rep, role).
  size_t constraintsWithLhs(const std::string &Rep, Role R) const {
    RepId Id;
    if (!Reps.lookup(Rep, Id))
      return 0;
    VarId V;
    VarTable &Vars = const_cast<VarTable &>(Sys.Vars);
    if (!Vars.lookup(Id, R, V))
      return 0;
    size_t N = 0;
    for (const auto &C : Sys.Constraints)
      for (const auto &T : C.Lhs)
        if (T.Var == V)
          ++N;
    return N;
  }
};

TEST(ConstraintGenTest, ChainYieldsAllThreeTemplates) {
  // src() -> san(x) -> snk(y): one instance of each of Fig. 4a/b/c.
  GenFixture F("import w\nimport s\nimport d\n"
               "x = w.src()\n"
               "y = s.san(x)\n"
               "d.snk(y)\n",
               "");
  // Each call is a candidate for all roles, so several template instances
  // fire; the exact count depends on candidate pairs, but every template
  // must contribute at least one constraint.
  EXPECT_GE(F.Sys.Constraints.size(), 3u);
  EXPECT_GE(F.constraintsWithLhs("s.san()", Role::Sanitizer), 1u);
  EXPECT_GE(F.constraintsWithLhs("w.src()", Role::Source), 1u);
}

TEST(ConstraintGenTest, ConstraintShapeFig4a) {
  GenFixture F("import w\nimport s\nimport d\n"
               "x = w.src()\n"
               "y = s.san(x)\n"
               "d.snk(y)\n",
               "");
  // Find the (san, snk) <= sources constraint and check its arithmetic
  // shape: 2 LHS terms, C = 0.75.
  RepId SanRep, SnkRep, SrcRep;
  ASSERT_TRUE(F.Reps.lookup("s.san()", SanRep));
  ASSERT_TRUE(F.Reps.lookup("d.snk()", SnkRep));
  ASSERT_TRUE(F.Reps.lookup("w.src()", SrcRep));
  VarId SanVar, SnkVar, SrcVar;
  ASSERT_TRUE(F.Sys.Vars.lookup(SanRep, Role::Sanitizer, SanVar));
  ASSERT_TRUE(F.Sys.Vars.lookup(SnkRep, Role::Sink, SnkVar));
  ASSERT_TRUE(F.Sys.Vars.lookup(SrcRep, Role::Source, SrcVar));

  bool Found = false;
  for (const auto &C : F.Sys.Constraints) {
    if (C.Lhs.size() != 2)
      continue;
    bool HasSan = false, HasSnk = false;
    for (const auto &T : C.Lhs) {
      HasSan |= T.Var == SanVar;
      HasSnk |= T.Var == SnkVar;
    }
    if (!HasSan || !HasSnk)
      continue;
    Found = true;
    EXPECT_DOUBLE_EQ(C.C, 0.75);
    bool RhsHasSrc = false;
    for (const auto &T : C.Rhs)
      RhsHasSrc |= T.Var == SrcVar;
    EXPECT_TRUE(RhsHasSrc);
  }
  EXPECT_TRUE(Found) << "Fig. 4a instance missing";
}

TEST(ConstraintGenTest, SeedsArePinned) {
  GenFixture F("import w\nimport d\n"
               "d.snk(w.src())\n",
               "o: w.src()\ni: d.snk()\n");
  // w.src() pinned to (1,0,0); d.snk() to (0,0,1).
  RepId SrcRep;
  ASSERT_TRUE(F.Reps.lookup("w.src()", SrcRep));
  VarId V;
  ASSERT_TRUE(F.Sys.Vars.lookup(SrcRep, Role::Source, V));
  bool FoundPin = false;
  for (const auto &[Var, Value] : F.Sys.Pinned)
    if (Var == V) {
      FoundPin = true;
      EXPECT_DOUBLE_EQ(Value, 1.0);
    }
  EXPECT_TRUE(FoundPin);
  EXPECT_EQ(F.Sys.Pinned.size(), 6u) << "3 role pins per seeded rep";
}

TEST(ConstraintGenTest, SeedAbsentFromCorpusIgnored) {
  GenFixture F("import w\nx = w.api()\n", "o: never.seen()\n");
  EXPECT_TRUE(F.Sys.Pinned.empty());
}

TEST(ConstraintGenTest, BlacklistRemovesCandidates) {
  GenFixture F("import w\nimport d\n"
               "d.snk(w.src())\n"
               "y = x.split()\n",
               "b: *.split()*\n");
  // The split() event survives as a graph node but has no variables.
  RepId Id;
  bool Interned = F.Reps.lookup("x.split()", Id);
  ASSERT_TRUE(Interned);
  VarId V;
  EXPECT_FALSE(F.Sys.Vars.lookup(Id, Role::Source, V));
}

TEST(ConstraintGenTest, CutoffDropsRareReps) {
  GenOptions Opts;
  Opts.RepCutoff = 5;
  GenFixture F("import w\nimport d\nd.snk(w.src())\n", "", Opts);
  EXPECT_EQ(F.Sys.NumCandidates, 0u);
  EXPECT_TRUE(F.Sys.Constraints.empty());
}

TEST(ConstraintGenTest, CandidateStatistics) {
  GenFixture F("import w\nimport d\n"
               "a = w.src()\n"
               "d.snk(a)\n",
               "");
  EXPECT_EQ(F.Sys.NumCandidates, 2u);
  EXPECT_DOUBLE_EQ(F.Sys.AvgBackoffOptions, 1.0);
}

TEST(ConstraintGenTest, BackoffAveragingCoefficients) {
  // A param-rooted method call has 2 options; its variable terms carry
  // coefficient 1/2 (§4.3).
  GenFixture F("import d\n"
               "def media(f):\n"
               "    d.snk(f.save())\n",
               "");
  RepId Id;
  ASSERT_TRUE(F.Reps.lookup("media(param f).save()", Id));
  VarId V;
  ASSERT_TRUE(F.Sys.Vars.lookup(Id, Role::Source, V));
  bool Found = false;
  for (const auto &C : F.Sys.Constraints)
    for (const auto &T : C.Lhs)
      if (T.Var == V) {
        EXPECT_FLOAT_EQ(T.Coef, 0.5f);
        Found = true;
      }
  EXPECT_TRUE(Found);
}

TEST(ConstraintGenTest, ObjectReadsOnlySourceVariables) {
  GenFixture F("import w\nimport d\n"
               "d.snk(w.data.field)\n",
               "");
  RepId Id;
  ASSERT_TRUE(F.Reps.lookup("w.data.field", Id));
  VarId V;
  EXPECT_TRUE(F.Sys.Vars.lookup(Id, Role::Source, V));
  EXPECT_FALSE(F.Sys.Vars.lookup(Id, Role::Sanitizer, V));
  EXPECT_FALSE(F.Sys.Vars.lookup(Id, Role::Sink, V));
}

TEST(ConstraintGenTest, CustomSlackConstant) {
  GenOptions Opts;
  Opts.RepCutoff = 1;
  Opts.C = 1.0;
  GenFixture F("import w\nimport s\nimport d\n"
               "d.snk(s.san(w.src()))\n",
               "", Opts);
  ASSERT_FALSE(F.Sys.Constraints.empty());
  for (const auto &C : F.Sys.Constraints)
    EXPECT_DOUBLE_EQ(C.C, 1.0);
}

TEST(ConstraintGenTest, MakeObjectiveWiresPins) {
  GenFixture F("import w\nimport d\nd.snk(w.src())\n",
               "o: w.src()\n");
  solver::CompiledObjective Obj = F.Sys.makeCompiledObjective(0.1);
  EXPECT_EQ(Obj.numVars(), F.Sys.Vars.numVars());
  EXPECT_EQ(Obj.stats().RowsBefore, F.Sys.Constraints.size());
  RepId Id;
  ASSERT_TRUE(F.Reps.lookup("w.src()", Id));
  VarId V;
  ASSERT_TRUE(F.Sys.Vars.lookup(Id, Role::Source, V));
  EXPECT_TRUE(Obj.isPinned(V));
  EXPECT_DOUBLE_EQ(Obj.pinnedValue(V), 1.0);
}

TEST(ConstraintGenTest, PairCapCountsSurvivingPairsOnly) {
  // A sanitizer reaches two sinks; the first is filtered out (blacklisted,
  // or below the cutoff). At cap 1 the single Fig. 4a row must pair the
  // sanitizer with the second sink, directly and composed from a shard.
  for (bool Blacklisted : {true, false}) {
    SCOPED_TRACE(Blacklisted ? "blacklisted" : "below cutoff");
    PropagationGraph G;
    uint32_t File = G.addFile("f.py");
    auto Add = [&](const char *Rep, RoleMask Mask) {
      return G.addEvent(EventKind::Call, Mask, File, {}, {Rep});
    };
    EventId San = Add("s.san()", SanitizerMask);
    EventId Dead = Add("d.dead()", SinkMask);
    EventId Live = Add("d.live()", SinkMask);
    G.addEdge(San, Dead);
    G.addEdge(San, Live);
    GenOptions Opts;
    Opts.MaxPairsPerAnchor = 1;
    Opts.RepCutoff = Blacklisted ? 1 : 2;
    if (!Blacklisted) {
      // Second occurrences lift every rep but d.dead() over the cutoff.
      Add("s.san()", 0);
      Add("d.live()", 0);
    }
    RepTable Reps;
    Reps.countOccurrences(G);
    spec::SeedSpec Seed =
        spec::SeedSpec::parse(Blacklisted ? "b: d.dead*\n" : "");
    RepId SanRep, LiveRep;
    ASSERT_TRUE(Reps.lookup("s.san()", SanRep));
    ASSERT_TRUE(Reps.lookup("d.live()", LiveRep));

    ConstraintShard Shard = extractShard(G, 0, 1);
    for (const ConstraintSystem &Sys :
         {generateConstraints(G, Reps, Seed, Opts),
          composeConstraints(G, Reps, Seed, {&Shard}, Opts)}) {
      ASSERT_EQ(Sys.Constraints.size(), 1u);
      const solver::LinearConstraint &Row = Sys.Constraints.front();
      VarId SanVar, LiveVar;
      ASSERT_TRUE(Sys.Vars.lookup(SanRep, Role::Sanitizer, SanVar));
      ASSERT_TRUE(Sys.Vars.lookup(LiveRep, Role::Sink, LiveVar));
      ASSERT_EQ(Row.Lhs.size(), 2u);
      EXPECT_EQ(Row.Lhs[0].Var, SanVar);
      EXPECT_EQ(Row.Lhs[1].Var, LiveVar);
      EXPECT_TRUE(Row.Rhs.empty());
    }
  }
}

TEST(ConstraintGenTest, CrossFileRepsShareVariables) {
  // Two files using the same API: its events map to the same variable.
  pysem::Project Proj;
  const auto &M1 = Proj.addModule("p/a.py", "import w\nx = w.api()\n");
  const auto &M2 = Proj.addModule("p/b.py", "import w\ny = w.api()\n");
  (void)M1;
  (void)M2;
  PropagationGraph G = buildProjectGraph(Proj);
  RepTable Reps;
  Reps.countOccurrences(G);
  RepId Id;
  ASSERT_TRUE(Reps.lookup("w.api()", Id));
  EXPECT_EQ(Reps.occurrences(Id), 2u);
}

} // namespace
