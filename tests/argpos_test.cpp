//===- tests/argpos_test.cpp - Argument-position sensitivity + globals ----===//
//
// Tests for two builder extensions: `global`-statement write-through and
// the argument-position-sensitive mode (the differentiation the paper's
// §3.3 leaves as future work: an API can be a sink in one parameter and
// harmless in another).
//
//===----------------------------------------------------------------------===//

#include "infer/Pipeline.h"
#include "propgraph/GraphBuilder.h"
#include "taint/TaintAnalyzer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

struct Fixture {
  pysem::Project Proj;
  PropagationGraph Graph;

  explicit Fixture(std::string_view Source,
                   BuildOptions Opts = BuildOptions()) {
    const pysem::ModuleInfo &M = Proj.addModule("app.py", Source);
    std::vector<pyast::ParseError> Errors;
    Graph = buildModuleGraph(Proj, M, Opts, &Errors);
    EXPECT_TRUE(Errors.empty());
  }

  EventId theEvent(const std::string &Rep) const {
    for (const Event &E : Graph.events())
      if (E.primaryRep() == Rep)
        return E.Id;
    ADD_FAILURE() << "no event " << Rep;
    return InvalidEvent;
  }

  bool hasEvent(const std::string &Rep) const {
    for (const Event &E : Graph.events())
      if (E.primaryRep() == Rep)
        return true;
    return false;
  }

  bool flowsTo(EventId From, EventId To) const {
    auto R = Graph.reachableFrom(From);
    return std::find(R.begin(), R.end(), To) != R.end();
  }
};

//===----------------------------------------------------------------------===//
// global statement
//===----------------------------------------------------------------------===//

TEST(GlobalStmtTest, GlobalAssignmentFlowsAcrossFunctions) {
  Fixture F("import web\nimport db\n"
            "cache = None\n"
            "def fill():\n"
            "    global cache\n"
            "    cache = web.read()\n"
            "def drain():\n"
            "    db.run(cache)\n"
            "fill()\n"
            "drain()\n");
  EXPECT_TRUE(F.flowsTo(F.theEvent("web.read()"), F.theEvent("db.run()")));
}

TEST(GlobalStmtTest, NonGlobalAssignmentStaysLocal) {
  Fixture F("import web\nimport db\n"
            "cache = None\n"
            "def fill():\n"
            "    cache = web.read()\n" // No `global`: local shadow.
            "def drain():\n"
            "    db.run(cache)\n"
            "fill()\n"
            "drain()\n");
  EXPECT_FALSE(F.flowsTo(F.theEvent("web.read()"), F.theEvent("db.run()")));
}

//===----------------------------------------------------------------------===//
// Argument-position-sensitive mode
//===----------------------------------------------------------------------===//

BuildOptions argPos() {
  BuildOptions Opts;
  Opts.ArgPositionReps = true;
  return Opts;
}

TEST(ArgPosTest, PositionalAndKeywordArgEvents) {
  Fixture F("import db\nimport web\n"
            "db.exec(web.read(), timeout=web.read())\n",
            argPos());
  EXPECT_TRUE(F.hasEvent("db.exec()[arg0]"));
  EXPECT_TRUE(F.hasEvent("db.exec()[kw:timeout]"));
  const Event &Arg = F.Graph.event(F.theEvent("db.exec()[arg0]"));
  EXPECT_EQ(Arg.Kind, EventKind::CallArgument);
  EXPECT_EQ(Arg.Candidates, SinkMask)
      << "argument events are sink-only candidates";
}

TEST(ArgPosTest, UntaintedArgumentsGetNoEvent) {
  Fixture F("import db\ndb.exec('constant', 42)\n", argPos());
  EXPECT_FALSE(F.hasEvent("db.exec()[arg0]"));
  EXPECT_FALSE(F.hasEvent("db.exec()[arg1]"));
}

TEST(ArgPosTest, FlowRoutesThroughArgEvent) {
  Fixture F("import db\nimport web\ndb.exec(web.read())\n", argPos());
  EventId Src = F.theEvent("web.read()");
  EventId Arg = F.theEvent("db.exec()[arg0]");
  EventId Call = F.theEvent("db.exec()");
  EXPECT_TRUE(F.flowsTo(Src, Arg));
  EXPECT_TRUE(F.flowsTo(Arg, Call));
}

TEST(ArgPosTest, DisabledByDefault) {
  Fixture F("import db\nimport web\ndb.exec(web.read())\n");
  EXPECT_FALSE(F.hasEvent("db.exec()[arg0]"));
}

TEST(ArgPosTest, WrongParameterFlowNotReported) {
  // The paper's Tab. 6 "Flows into wrong parameter" false positives vanish
  // when the sink specification names the dangerous argument.
  const char *Source = "import db\nimport web\n"
                       "db.exec(web.read())\n"                // arg0: bad.
                       "db.exec('static', meta=web.read())\n"; // meta: ok.
  spec::SeedSpec ArgSeed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()[arg0]\n");
  Fixture F(Source, argPos());
  taint::RoleResolver Roles(&ArgSeed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(F.Graph);
  auto Reports = Analyzer.analyze(Roles);
  ASSERT_EQ(Reports.size(), 1u)
      << "only the dangerous-argument flow is a violation";
  EXPECT_EQ(F.Graph.event(Reports[0].Sink).primaryRep(), "db.exec()[arg0]");

  // Position-insensitive baseline: both flows are flagged.
  spec::SeedSpec PlainSeed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  Fixture Plain(Source);
  taint::RoleResolver PlainRoles(&PlainSeed.Spec, nullptr);
  EXPECT_EQ(taint::TaintAnalyzer(Plain.Graph).analyze(PlainRoles).size(),
            2u);
}

TEST(ArgPosTest, ArgSinkLearnableThroughPipeline) {
  // Big-code learning of a per-argument sink: the dangerous argument of
  // db.exec is learned while the timeout argument stays cold.
  std::vector<pysem::Project> Corpus;
  for (int I = 0; I < 8; ++I) {
    pysem::Project P("p" + std::to_string(I));
    P.addModule("p" + std::to_string(I) + "/app.py",
                "import web\nimport clean\nimport db\n"
                "q = clean.scrub(web.read())\n"
                "db.exec(q, timeout=30)\n"
                "db.exec('static', timeout=cfg.val)\n");
    Corpus.push_back(std::move(P));
  }
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\na: clean.scrub()\n");
  infer::PipelineOptions Opts;
  Opts.Build.ArgPositionReps = true;
  Opts.Solve.MaxIterations = 2000;
  Opts.Solve.LearningRate = 0.02;
  infer::Session S(Opts);
  S.addProjects(Corpus);
  S.generateConstraints(Seed);
  infer::PipelineResult R = S.solve();
  EXPECT_GT(R.Learned.score("db.exec()[arg0]", Role::Sink), 0.3);
  EXPECT_LT(R.Learned.score("db.exec()[kw:timeout]", Role::Sink), 0.1);
}

TEST(ArgPosTest, StarArgsAndKwargsExpansion) {
  Fixture F("import db\nimport web\n"
            "args = [web.read()]\n"
            "db.exec(*args, **extra)\n",
            argPos());
  // *args is positional slot 0; **extra has no events (unknown name).
  EXPECT_TRUE(F.hasEvent("db.exec()[arg0]"));
  EXPECT_FALSE(F.hasEvent("db.exec()[kwargs]"));
}

} // namespace
