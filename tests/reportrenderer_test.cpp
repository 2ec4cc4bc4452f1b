//===- tests/reportrenderer_test.cpp - Tests for report post-processing ---===//

#include "propgraph/GraphBuilder.h"
#include "taint/ReportRenderer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace seldon;
using namespace seldon::taint;
using namespace seldon::propgraph;

namespace {

struct RendererFixture {
  pysem::Project Proj;
  PropagationGraph Graph;
  spec::SeedSpec Seed;
  spec::LearnedSpec Learned;

  explicit RendererFixture(std::string_view Source,
                           std::string_view SeedText = "") {
    const pysem::ModuleInfo &M = Proj.addModule("p/app.py", Source);
    std::vector<pyast::ParseError> Errors;
    Graph = buildModuleGraph(Proj, M, BuildOptions(), &Errors);
    EXPECT_TRUE(Errors.empty());
    Seed = spec::SeedSpec::parse(SeedText);
  }

  std::vector<Violation> analyze() {
    RoleResolver Roles(&Seed.Spec, &Learned, 0.1);
    return TaintAnalyzer(Graph).analyze(Roles);
  }
};

TEST(ReportRendererTest, EndpointConfidenceSeedBeatsLearned) {
  RendererFixture F("import web\nx = web.read()\n", "o: web.read()\n");
  F.Learned.setScore("web.read()", Role::Source, 0.4);
  const Event &E = F.Graph.event(0);
  EXPECT_DOUBLE_EQ(
      endpointConfidence(E, Role::Source, &F.Seed.Spec, &F.Learned), 1.0);
  EXPECT_DOUBLE_EQ(endpointConfidence(E, Role::Source, nullptr, &F.Learned),
                   0.4);
  EXPECT_DOUBLE_EQ(endpointConfidence(E, Role::Sink, &F.Seed.Spec,
                                      &F.Learned),
                   0.0);
}

TEST(ReportRendererTest, ViolationConfidenceIsMinOfEndpoints) {
  RendererFixture F("import web\nimport db\ndb.run(web.read())\n",
                    "o: web.read()\n");
  F.Learned.setScore("db.run()", Role::Sink, 0.6);
  auto Reports = F.analyze();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_DOUBLE_EQ(violationConfidence(F.Graph, Reports[0], &F.Seed.Spec,
                                       &F.Learned),
                   0.6);
}

TEST(ReportRendererTest, RankingSortsByConfidence) {
  RendererFixture F("import web\nimport other\nimport db\nimport log\n"
                    "db.run(web.read())\n"
                    "log.emit(other.fetch())\n",
                    "o: web.read()\ni: db.run()\n");
  F.Learned.setScore("other.fetch()", Role::Source, 0.3);
  F.Learned.setScore("log.emit()", Role::Sink, 0.5);
  auto Reports = F.analyze();
  ASSERT_EQ(Reports.size(), 2u);
  std::vector<double> Confidence =
      rankViolations(F.Graph, Reports, &F.Seed.Spec, &F.Learned);
  ASSERT_EQ(Confidence.size(), 2u);
  EXPECT_DOUBLE_EQ(Confidence[0], 1.0) << "seeded pair ranks first";
  EXPECT_DOUBLE_EQ(Confidence[1], 0.3);
  EXPECT_EQ(F.Graph.event(Reports[0].Source).primaryRep(), "web.read()");
}

TEST(ReportRendererTest, DedupByRepPair) {
  RendererFixture F("import web\nimport db\n"
                    "db.run(web.read())\n"
                    "db.run(web.read())\n"
                    "db.run(web.read())\n",
                    "o: web.read()\ni: db.run()\n");
  auto Reports = F.analyze();
  ASSERT_EQ(Reports.size(), 3u);
  auto Deduped = dedupByRepPair(F.Graph, Reports);
  EXPECT_EQ(Deduped.size(), 1u);
}

TEST(ReportRendererTest, DedupKeepsDistinctPairs) {
  RendererFixture F("import web\nimport db\nimport fs\n"
                    "db.run(web.read())\n"
                    "fs.write(web.read())\n",
                    "o: web.read()\ni: db.run()\ni: fs.write()\n");
  auto Reports = F.analyze();
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_EQ(dedupByRepPair(F.Graph, Reports).size(), 2u);
}

TEST(ReportRendererTest, FormatContainsEndpointsAndPath) {
  RendererFixture F("import web\nimport db\ndb.run(web.read())\n",
                    "o: web.read()\ni: db.run()\n");
  auto Reports = F.analyze();
  ASSERT_EQ(Reports.size(), 1u);
  std::string Text = formatViolation(F.Graph, Reports[0]);
  EXPECT_NE(Text.find("p/app.py"), std::string::npos);
  EXPECT_NE(Text.find("source web.read()"), std::string::npos);
  EXPECT_NE(Text.find("sink   db.run()"), std::string::npos);
  EXPECT_NE(Text.find("line 3"), std::string::npos);
  EXPECT_NE(Text.find("path:"), std::string::npos);
}

TEST(ReportRendererTest, FormatQuotesEachStepThroughTheCallback) {
  RendererFixture F("import web\nimport db\ndb.run(web.read())\n",
                    "o: web.read()\ni: db.run()\n");
  auto Reports = F.analyze();
  ASSERT_EQ(Reports.size(), 1u);
  std::string Plain = formatViolation(F.Graph, Reports[0]);
  std::vector<uint32_t> Asked;
  std::string Quoted = formatViolation(
      F.Graph, Reports[0], [&](uint32_t FileIdx, uint32_t Line) {
        EXPECT_EQ(F.Graph.files()[FileIdx], "p/app.py");
        Asked.push_back(Line);
        // An empty quote adds no line: only the first step is quoted.
        return Asked.size() == 1 ? std::string("db.run(web.read())")
                                 : std::string();
      });
  ASSERT_EQ(Asked.size(), Reports[0].Path.size());
  EXPECT_EQ(Asked.front(), 3u);
  // The quote follows its step's line; everything else is the plain text.
  size_t Step = Plain.find("(line 3)\n", Plain.find("path:")) + 9;
  EXPECT_EQ(Quoted, Plain.substr(0, Step) + "        | db.run(web.read())\n" +
                        Plain.substr(Step));
}

TEST(ReportRendererTest, RankingStableOnTies) {
  RendererFixture F("import web\nimport db\nimport fs\n"
                    "db.run(web.read())\n"
                    "fs.write(web.read())\n",
                    "o: web.read()\ni: db.run()\ni: fs.write()\n");
  auto Reports = F.analyze();
  ASSERT_EQ(Reports.size(), 2u);
  std::string FirstSink = F.Graph.event(Reports[0].Sink).primaryRep();
  rankViolations(F.Graph, Reports, &F.Seed.Spec, nullptr);
  EXPECT_EQ(F.Graph.event(Reports[0].Sink).primaryRep(), FirstSink)
      << "stable sort keeps discovery order on equal confidence";
}

} // namespace
