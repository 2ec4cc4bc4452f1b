//===- tests/crossmodule_test.cpp - Project-level flow linking ------------===//
//
// Tests for BuildOptions::CrossModuleFlows: calls into functions defined
// in other modules of the same project get argument-to-parameter and
// return-to-call edges, so flows through project-local helper modules
// (`from utils import scrub`) become visible. The paper's default — all
// imported bodies unknown (§5.2) — remains the default here.
//
//===----------------------------------------------------------------------===//

#include "propgraph/GraphBuilder.h"
#include "spec/SeedSpec.h"
#include "taint/TaintAnalyzer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

struct ProjectFixture {
  pysem::Project Proj{"pkg"};
  PropagationGraph Graph;

  void add(const std::string &Path, std::string_view Source) {
    Proj.addModule(Path, Source);
  }

  void build(bool CrossModule) {
    BuildOptions Opts;
    Opts.CrossModuleFlows = CrossModule;
    std::vector<pyast::ParseError> Errors;
    Graph = buildProjectGraph(Proj, Opts, &Errors);
    EXPECT_TRUE(Errors.empty())
        << (Errors.empty() ? "" : Errors.front().Message);
  }

  bool flowsTo(const std::string &From, const std::string &To) const {
    EventId F = InvalidEvent, T = InvalidEvent;
    for (const Event &E : Graph.events()) {
      if (E.primaryRep() == From && F == InvalidEvent)
        F = E.Id;
      if (E.primaryRep() == To && T == InvalidEvent)
        T = E.Id;
    }
    if (F == InvalidEvent || T == InvalidEvent)
      return false;
    auto R = Graph.reachableFrom(F);
    return std::find(R.begin(), R.end(), T) != R.end();
  }
};

void addHelperProject(ProjectFixture &F) {
  F.add("pkg/utils.py", "import flask\n"
                        "def scrub(value):\n"
                        "    return flask.escape(value)\n");
  F.add("pkg/app.py", "from utils import scrub\n"
                      "from flask import request\n"
                      "import flask\n"
                      "def view():\n"
                      "    q = request.args.get('q')\n"
                      "    flask.make_response(scrub(q))\n");
}

TEST(CrossModuleTest, DefaultTreatsImportsAsUnknown) {
  ProjectFixture F;
  addHelperProject(F);
  F.build(/*CrossModule=*/false);
  // The argument still flows through the opaque call into the sink...
  EXPECT_TRUE(
      F.flowsTo("flask.request.args.get()", "flask.make_response()"));
  // ...but never reaches the helper's body.
  EXPECT_FALSE(F.flowsTo("flask.request.args.get()", "flask.escape()"));
}

TEST(CrossModuleTest, LinkedFlowReachesHelperBody) {
  ProjectFixture F;
  addHelperProject(F);
  F.build(/*CrossModule=*/true);
  EXPECT_TRUE(F.flowsTo("flask.request.args.get()", "flask.escape()"));
  EXPECT_TRUE(F.flowsTo("flask.escape()", "flask.make_response()"));
}

TEST(CrossModuleTest, SeededSanitizerBlocksLinkedFlow) {
  // With linking, the seed's flask.escape() suppresses the report without
  // the learner ever seeing `utils.scrub`.
  spec::SeedSpec Seed = spec::SeedSpec::parse(
      "o: flask.request.args.get()\n"
      "a: flask.escape()\n"
      "i: flask.make_response()\n");

  ProjectFixture Unlinked;
  addHelperProject(Unlinked);
  Unlinked.build(false);
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  EXPECT_EQ(taint::TaintAnalyzer(Unlinked.Graph).analyze(Roles).size(), 1u)
      << "opaque helper: false positive (paper's 'missing sanitizer')";

  ProjectFixture LinkedF;
  addHelperProject(LinkedF);
  LinkedF.build(true);
  EXPECT_TRUE(taint::TaintAnalyzer(LinkedF.Graph).analyze(Roles).empty())
      << "linked helper: the sanitized path is visible";
}

TEST(CrossModuleTest, AbsoluteQualifiedImportResolves) {
  ProjectFixture F;
  F.add("pkg/helpers.py", "import db\n"
                          "def run(q):\n"
                          "    db.exec(q)\n");
  F.add("pkg/app.py", "import helpers\nimport web\n"
                      "helpers.run(web.read())\n");
  F.build(true);
  EXPECT_TRUE(F.flowsTo("web.read()", "db.exec()"));
}

TEST(CrossModuleTest, KeywordArgumentsLink) {
  ProjectFixture F;
  F.add("pkg/helpers.py", "import db\n"
                          "def run(query, timeout):\n"
                          "    db.exec(query)\n");
  F.add("pkg/app.py", "import helpers\nimport web\n"
                      "helpers.run(timeout=3, query=web.read())\n");
  F.build(true);
  EXPECT_TRUE(F.flowsTo("web.read()", "db.exec()"));
}

TEST(CrossModuleTest, ReturnValueFlowsBack) {
  ProjectFixture F;
  F.add("pkg/helpers.py", "import web\n"
                          "def fetch():\n"
                          "    return web.read()\n");
  F.add("pkg/app.py", "import helpers\nimport db\n"
                      "db.exec(helpers.fetch())\n");
  F.build(true);
  EXPECT_TRUE(F.flowsTo("web.read()", "db.exec()"));
}

TEST(CrossModuleTest, UnknownTargetsStayOpaque) {
  ProjectFixture F;
  F.add("pkg/app.py", "import requests\nimport db\n"
                      "db.exec(requests.get(url))\n");
  F.build(true);
  // `requests` is not a project module; nothing to link, no crash.
  EXPECT_TRUE(F.flowsTo("requests.get()", "db.exec()"));
}

TEST(PreciseInliningTest, SeededSanitizerInLocalWrapperBlocks) {
  const char *Source = "import flask\n"
                       "from flask import request\n"
                       "def scrub(value):\n"
                       "    return flask.escape(value)\n"
                       "def view():\n"
                       "    q = request.args.get('q')\n"
                       "    flask.make_response(scrub(q))\n";
  spec::SeedSpec Seed = spec::SeedSpec::parse(
      "o: flask.request.args.get()\n"
      "a: flask.escape()\n"
      "i: flask.make_response()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);

  // Paper semantics: the wrapper call propagates its argument directly,
  // so the inner sanitizer cannot suppress the report.
  pysem::Project P1("p");
  const pysem::ModuleInfo &M1 = P1.addModule("p/app.py", Source);
  PropagationGraph G1 = buildModuleGraph(P1, M1);
  EXPECT_EQ(taint::TaintAnalyzer(G1).analyze(Roles).size(), 1u);

  // Precise inlining: flow routes only through the wrapper body.
  pysem::Project P2("p");
  const pysem::ModuleInfo &M2 = P2.addModule("p/app.py", Source);
  BuildOptions Opts;
  Opts.PreciseInlining = true;
  PropagationGraph G2 = buildModuleGraph(P2, M2, Opts);
  EXPECT_TRUE(taint::TaintAnalyzer(G2).analyze(Roles).empty());
}

TEST(PreciseInliningTest, RecursiveCallsKeepDirectEdges) {
  pysem::Project P("p");
  const pysem::ModuleInfo &M =
      P.addModule("p/app.py", "import web\nimport db\n"
                              "def f(x):\n"
                              "    db.exec(x)\n"
                              "    return f(x)\n"
                              "f(web.read())\n");
  BuildOptions Opts;
  Opts.PreciseInlining = true;
  PropagationGraph G = buildModuleGraph(P, M, Opts);
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  EXPECT_GE(taint::TaintAnalyzer(G).analyze(Roles).size(), 1u)
      << "flow through the recursive wrapper must not be lost";
}

TEST(CrossModuleTest, GraphStaysAcyclicOnSimpleProjects) {
  ProjectFixture F;
  addHelperProject(F);
  F.build(true);
  EXPECT_TRUE(F.Graph.isAcyclic());
}

} // namespace
