//===- tests/graphexport_test.cpp - Tests for graph serialization ---------===//

#include "propgraph/GraphBuilder.h"
#include "propgraph/GraphExport.h"
#include "propgraph/GraphStats.h"
#include "pysem/Project.h"
#include "taint/TaintAnalyzer.h"

#include <gtest/gtest.h>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

struct ExportFixture {
  pysem::Project Proj;
  PropagationGraph Graph;

  explicit ExportFixture(std::string_view Source) {
    const pysem::ModuleInfo &M = Proj.addModule("app.py", Source);
    std::vector<pyast::ParseError> Errors;
    Graph = buildModuleGraph(Proj, M, BuildOptions(), &Errors);
    EXPECT_TRUE(Errors.empty());
  }
};

TEST(GraphExportTest, TextFormatListsEventsAndEdges) {
  ExportFixture F("import web\nimport db\ndb.run(web.read())\n");
  std::string Text = toText(F.Graph);
  EXPECT_NE(Text.find("graph events=2 edges=1"), std::string::npos);
  EXPECT_NE(Text.find("event 0 call web.read()"), std::string::npos);
  EXPECT_NE(Text.find("event 1 call db.run()"), std::string::npos);
  EXPECT_NE(Text.find("edge 0 1"), std::string::npos);
}

TEST(GraphExportTest, TextFormatIncludesBackoffOptions) {
  ExportFixture F("def media(f):\n    f.save(p)\n");
  std::string Text = toText(F.Graph);
  EXPECT_NE(Text.find("event"), std::string::npos);
  EXPECT_NE(Text.find("backoff f.save()"), std::string::npos);
}

TEST(GraphExportTest, DotIsWellFormed) {
  ExportFixture F("import web\nimport db\ndb.run(web.read())\n");
  std::string Dot = toDot(F.Graph);
  EXPECT_EQ(Dot.rfind("digraph", 0), 0u);
  EXPECT_NE(Dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"web.read()\""), std::string::npos);
  EXPECT_EQ(Dot.back(), '\n');
  // Balanced braces.
  EXPECT_NE(Dot.find("{"), std::string::npos);
  EXPECT_NE(Dot.find("}"), std::string::npos);
}

TEST(GraphExportTest, DotEscapesQuotes) {
  ExportFixture F("from flask import request\n"
                  "x = request.files['f']\n");
  std::string Dot = toDot(F.Graph);
  // The label contains single quotes (fine) and must not break quoting.
  EXPECT_NE(Dot.find("flask.request.files['f']"), std::string::npos);
}

TEST(GraphExportTest, DotColorsRoles) {
  ExportFixture F("import web\nimport clean\nimport db\n"
                  "db.run(clean.scrub(web.read()))\n");
  spec::SeedSpec Seed = spec::SeedSpec::parse(
      "o: web.read()\na: clean.scrub()\ni: db.run()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(F.Graph);

  DotOptions Opts;
  Opts.Roles = Analyzer.resolveRoles(Roles);
  Opts.Name = "fig2b";
  std::string Dot = toDot(F.Graph, Opts);
  EXPECT_NE(Dot.find("digraph \"fig2b\""), std::string::npos);
  EXPECT_NE(Dot.find("lightskyblue"), std::string::npos); // Source.
  EXPECT_NE(Dot.find("palegreen"), std::string::npos);    // Sanitizer.
  EXPECT_NE(Dot.find("lightcoral"), std::string::npos);   // Sink.
}

TEST(GraphExportTest, EmptyGraph) {
  PropagationGraph G;
  EXPECT_NE(toText(G).find("graph events=0 edges=0"), std::string::npos);
  EXPECT_EQ(toDot(G).rfind("digraph", 0), 0u);
}

//===----------------------------------------------------------------------===//
// GraphStats
//===----------------------------------------------------------------------===//

TEST(GraphStatsTest, CountsAndDegrees) {
  ExportFixture F("import web\nimport clean\nimport db\n"
                  "def handle(req):\n"
                  "    x = web.read()\n"
                  "    y = clean.scrub(x)\n"
                  "    db.run(y)\n"
                  "    db.run(x)\n");
  GraphStats Stats = computeGraphStats(F.Graph);
  EXPECT_EQ(Stats.NumEvents, F.Graph.numEvents());
  EXPECT_EQ(Stats.NumEdges, F.Graph.numEdges());
  EXPECT_EQ(Stats.countOf(EventKind::FormalParam), 1u);
  EXPECT_EQ(Stats.countOf(EventKind::Call), 4u);
  // web.read() feeds scrub and the second db.run: out-degree 2.
  EXPECT_EQ(Stats.MaxOutDegree, 2u);
  EXPECT_GT(Stats.Roots, 0u);
  EXPECT_GT(Stats.Leaves, 0u);
  // Longest chain: web.read -> clean.scrub -> db.run = 3 events.
  EXPECT_EQ(Stats.LongestChain, 3u);
  EXPECT_EQ(Stats.MaxEventsPerFile, Stats.NumEvents);
}

TEST(GraphStatsTest, EmptyGraph) {
  PropagationGraph G;
  GraphStats Stats = computeGraphStats(G);
  EXPECT_EQ(Stats.NumEvents, 0u);
  EXPECT_EQ(Stats.LongestChain, 0u);
  EXPECT_DOUBLE_EQ(Stats.AvgOutDegree, 0.0);
}

TEST(GraphStatsTest, CyclicGraphReportsZeroChain) {
  PropagationGraph G;
  uint32_t File = G.addFile("f.py");
  EventId A = G.addEvent(EventKind::Call, 0, File, {}, {"a()"});
  EventId B = G.addEvent(EventKind::Call, 0, File, {}, {"b()"});
  G.addEdge(A, B);
  G.addEdge(B, A);
  EXPECT_EQ(computeGraphStats(G).LongestChain, 0u);
}

TEST(GraphStatsTest, RenderingContainsKeyNumbers) {
  ExportFixture F("import web\nimport db\ndb.run(web.read())\n");
  std::string Text = renderGraphStats(computeGraphStats(F.Graph));
  EXPECT_NE(Text.find("events: 2"), std::string::npos);
  EXPECT_NE(Text.find("longest flow chain: 2"), std::string::npos);
}

} // namespace
