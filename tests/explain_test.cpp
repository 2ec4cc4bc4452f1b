//===- tests/explain_test.cpp - Constraint explanations + JSON export -----===//

#include "constraints/Explain.h"
#include "infer/Pipeline.h"
#include "propgraph/GraphBuilder.h"
#include "taint/JsonExport.h"
#include "taint/ReportRenderer.h"

#include <gtest/gtest.h>

#include "support/StrUtil.h"

#include <algorithm>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

struct ExplainFixture {
  infer::PipelineResult Result;
  spec::SeedSpec Seed;

  ExplainFixture() {
    std::vector<pysem::Project> Corpus;
    for (int I = 0; I < 6; ++I) {
      pysem::Project P("p" + std::to_string(I));
      P.addModule("p" + std::to_string(I) + "/app.py",
                  "import web\nimport mid\nimport db\n"
                  "db.exec(mid.filter(web.read()))\n"
                  "x = noise.call()\n");
      Corpus.push_back(std::move(P));
    }
    Seed = spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
    infer::PipelineOptions Opts;
    Opts.Solve.MaxIterations = 1500;
    infer::Session S(Opts);
    S.addProjects(Corpus);
    S.generateConstraints(Seed);
    Result = S.solve();
  }

  constraints::Explanation explain(const std::string &Rep, Role R) {
    return constraints::explainRep(Result.System, Result.Reps, Rep, R,
                                   Result.Solve.X);
  }
};

TEST(ExplainTest, LearnedSanitizerHasDemandingConstraint) {
  ExplainFixture F;
  auto E = F.explain("mid.filter()", Role::Sanitizer);
  ASSERT_TRUE(E.Found);
  EXPECT_FALSE(E.Pinned);
  EXPECT_GT(E.Score, 0.3);
  ASSERT_FALSE(E.Constraints.empty());
  bool Demanded = false;
  for (const auto &C : E.Constraints) {
    Demanded |= !C.OnLhs;
    EXPECT_NE(C.Text.find("mid.filter()^sanitizer"), std::string::npos);
    EXPECT_NE(C.Text.find("<="), std::string::npos);
  }
  EXPECT_TRUE(Demanded) << "Fig. 4c must demand the sanitizer on the RHS";
}

TEST(ExplainTest, SeededVariableReportedAsPinned) {
  ExplainFixture F;
  auto E = F.explain("web.read()", Role::Source);
  ASSERT_TRUE(E.Found);
  EXPECT_TRUE(E.Pinned);
  EXPECT_DOUBLE_EQ(E.PinnedValue, 1.0);
  EXPECT_DOUBLE_EQ(E.Score, 1.0);
}

TEST(ExplainTest, UnknownRepNotFound) {
  ExplainFixture F;
  EXPECT_FALSE(F.explain("never.seen()", Role::Source).Found);
}

TEST(ExplainTest, NonCandidateRoleNotFound) {
  ExplainFixture F;
  // noise.call() occurs but interacts with nothing: it may have variables
  // only if some constraint or seed touched it.
  auto E = F.explain("noise.call()", Role::Sanitizer);
  EXPECT_FALSE(E.Found);
}

TEST(ExplainTest, RenderConstraintShape) {
  ExplainFixture F;
  ASSERT_FALSE(F.Result.System.Constraints.empty());
  std::string Text = constraints::renderConstraint(
      F.Result.System, F.Result.Reps, F.Result.System.Constraints.front());
  EXPECT_NE(Text.find(" <= "), std::string::npos);
  EXPECT_NE(Text.find(" + 0.75"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// JSON export
//===----------------------------------------------------------------------===//

TEST(JsonExportTest, WellFormedReport) {
  pysem::Project Proj("p");
  const pysem::ModuleInfo &M = Proj.addModule(
      "p/app.py", "import web\nimport db\ndb.exec(web.read())\n");
  std::vector<pyast::ParseError> Errors;
  PropagationGraph G = buildModuleGraph(Proj, M, BuildOptions(), &Errors);
  ASSERT_TRUE(Errors.empty());
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  auto Reports = taint::TaintAnalyzer(G).analyze(Roles);
  ASSERT_EQ(Reports.size(), 1u);
  std::vector<double> Confidence =
      taint::rankViolations(G, Reports, &Seed.Spec, nullptr);

  std::string Json = taint::reportsToJson(G, Reports, &Confidence);
  EXPECT_NE(Json.find("\"file\": \"p/app.py\""), std::string::npos);
  EXPECT_NE(Json.find("\"confidence\": 1.0000"), std::string::npos);
  EXPECT_NE(Json.find("\"rep\": \"web.read()\""), std::string::npos);
  EXPECT_NE(Json.find("\"rep\": \"db.exec()\""), std::string::npos);
  EXPECT_NE(Json.find("\"path\": ["), std::string::npos);
  // Balanced braces/brackets as a cheap well-formedness check.
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '['),
            std::count(Json.begin(), Json.end(), ']'));
}

TEST(JsonExportTest, EmptyReportsAndNoConfidence) {
  PropagationGraph G;
  EXPECT_EQ(taint::reportsToJson(G, {}), "{\"reports\": []}");
}

TEST(JsonExportTest, EscapesSpecialCharacters) {
  PropagationGraph G;
  uint32_t File = G.addFile("dir/quote\"back\\slash.py");
  Event E1, E2;
  E1.Kind = E2.Kind = EventKind::Call;
  E1.Reps = {"weird\"rep()"};
  E2.Reps = {"snk()"};
  E1.FileIdx = E2.FileIdx = File;
  EventId A = G.addEvent(E1), B = G.addEvent(E2);
  G.addEdge(A, B);
  taint::Violation V;
  V.Source = A;
  V.Sink = B;
  V.Path = {A, B};
  V.FileIdx = File;
  std::string Json = taint::reportsToJson(G, {V});
  EXPECT_NE(Json.find("quote\\\"back\\\\slash.py"), std::string::npos);
  EXPECT_NE(Json.find("weird\\\"rep()"), std::string::npos);
}

TEST(JsonEscapeTest, ControlCharacters) {
  EXPECT_EQ(seldon::jsonEscape("a\tb\nc"), "a\\tb\\nc");
  EXPECT_EQ(seldon::jsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(seldon::jsonEscape("plain"), "plain");
}

} // namespace
