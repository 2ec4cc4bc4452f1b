//===- tests/explain_test.cpp - Constraint explanations + JSON export -----===//

#include "TestCorpus.h"

#include "constraints/Explain.h"
#include "constraints/Feedback.h"
#include "infer/Pipeline.h"
#include "propgraph/GraphBuilder.h"
#include "service/QueryResult.h"
#include "taint/JsonExport.h"
#include "taint/ReportRenderer.h"

#include <gtest/gtest.h>

#include "support/StrUtil.h"

#include <algorithm>
#include <span>

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

  service::QueryResult explain(const std::string &Rep, Role R) {
    return service::queryRep(Result.System, Result.Reps, Rep, R,
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
  for (size_t I = 0; I < E.Constraints.size(); ++I) {
    Demanded |= !E.Constraints[I].Caps;
    EXPECT_NE(E.text(I).find("mid.filter()^sanitizer"), std::string::npos);
    EXPECT_NE(E.text(I).find("<="), std::string::npos);
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
  const constraints::ConstraintSystem &Sys = F.Result.System;
  ASSERT_FALSE(Sys.Constraints.empty());
  // The first row is the first one its variables' answers list.
  const solver::LinearConstraint &Row = Sys.Constraints.front();
  constraints::VarId V = (Row.Lhs.empty() ? Row.Rhs : Row.Lhs).front().Var;
  service::QueryResult Q = F.explain(
      F.Result.Reps.repString(Sys.Vars.repOf(V)), Sys.Vars.roleOf(V));
  ASSERT_FALSE(Q.Constraints.empty());
  std::string_view Text = Q.text(0);
  EXPECT_NE(Text.find(" <= "), std::string::npos);
  EXPECT_NE(Text.find(" + 0.75"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The var→rows index
//===----------------------------------------------------------------------===//

/// Equal in every field, with constraints equal in text, residual and side,
/// in the same order.
void expectSameExplanation(const service::QueryResult &Indexed,
                           const service::QueryResult &Scanned) {
  EXPECT_EQ(Indexed.Found, Scanned.Found);
  EXPECT_EQ(Indexed.Score, Scanned.Score);
  EXPECT_EQ(Indexed.Pinned, Scanned.Pinned);
  EXPECT_EQ(Indexed.PinnedValue, Scanned.PinnedValue);
  ASSERT_EQ(Indexed.Constraints.size(), Scanned.Constraints.size());
  for (size_t I = 0; I < Indexed.Constraints.size(); ++I) {
    SCOPED_TRACE("constraint " + std::to_string(I));
    EXPECT_EQ(Indexed.text(I), Scanned.text(I));
    EXPECT_EQ(Indexed.Constraints[I].Residual,
              Scanned.Constraints[I].Residual);
    EXPECT_EQ(Indexed.Constraints[I].Caps, Scanned.Constraints[I].Caps);
  }
}

std::vector<uint32_t> listOf(std::span<const uint32_t> Rows) {
  return std::vector<uint32_t>(Rows.begin(), Rows.end());
}

TEST(ExplainTest, IndexFindsExactlyTheScannedRows) {
  corpus::Corpus Data = testutil::makeCorpus(5151, /*NumProjects=*/6);
  infer::Session S;
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  constraints::ConstraintSystem Sys = S.system();
  const RepTable &Reps = S.reps();
  ASSERT_GT(Sys.Vars.numVars(), 2u);

  // Weighted, decayed evidence rows after the generated ones.
  constraints::FeedbackSet Verdicts;
  Verdicts.accept(Reps.repString(Sys.Vars.repOf(0)), Sys.Vars.roleOf(0));
  constraints::VarId Mid = static_cast<constraints::VarId>(
      Sys.Vars.numVars() / 2);
  Verdicts.reject(Reps.repString(Sys.Vars.repOf(Mid)), Sys.Vars.roleOf(Mid));
  constraints::FeedbackOptions FO;
  FO.AcceptWeight = 2.0;
  FO.RejectWeight = 0.5;
  FO.SimilarityDecay = 0.5;
  size_t Generated = Sys.Constraints.size();
  constraints::FeedbackStats Stats =
      constraints::applyFeedback(Sys, Reps, Verdicts, FO);
  ASSERT_EQ(Stats.EvidenceRows, 2u);
  ASSERT_GT(Sys.Constraints.size(), Generated);

  std::vector<double> X(Sys.Vars.numVars());
  for (size_t V = 0; V < X.size(); ++V)
    X[V] = static_cast<double>((V * 37) % 101) / 100.0;
  constraints::RowIndex Index = constraints::buildRowIndex(Sys);
  ASSERT_EQ(Index.Begin.size(), Sys.Vars.numVars() + 1);

  size_t Listed = 0;
  for (constraints::VarId V = 0; V < Sys.Vars.numVars(); ++V) {
    const std::string &Rep = Reps.repString(Sys.Vars.repOf(V));
    SCOPED_TRACE(Rep + "^" + roleName(Sys.Vars.roleOf(V)));
    service::QueryResult Indexed =
        service::queryRep(Sys, Reps, Rep, Sys.Vars.roleOf(V), X, &Index);
    expectSameExplanation(
        Indexed, service::queryRep(Sys, Reps, Rep, Sys.Vars.roleOf(V), X));
    Listed += Indexed.Constraints.size();
  }
  EXPECT_EQ(Listed, Index.Rows.size());
}

TEST(ExplainTest, IndexListsEachRowOncePerVariable) {
  const RepTable Reps = testutil::repTableOf({{"a()"}, {"b()"}, {"idle()"}});
  auto Id = [&](std::string_view Rep) { return testutil::repIdOf(Reps, Rep); };
  constraints::ConstraintSystem Sys;
  constraints::VarId A = Sys.Vars.varFor(Id("a()"), Role::Source);
  constraints::VarId B = Sys.Vars.varFor(Id("b()"), Role::Sink);
  constraints::VarId Idle = Sys.Vars.varFor(Id("idle()"), Role::Sanitizer);
  // Row 0 repeats A within one side; row 1 has A on both sides; row 2
  // mentions only B.
  Sys.Constraints.add({{A, 1.0f}, {A, 0.5f}}, {{B, 1.0f}}, 0.5);
  Sys.Constraints.add({{A, 1.0f}}, {{A, 1.0f}, {B, 2.0f}}, 0.0);
  Sys.Constraints.add({}, {{B, 1.0f}}, -1.0);

  constraints::RowIndex Index = constraints::buildRowIndex(Sys);
  ASSERT_EQ(Index.Begin.size(), 4u);
  EXPECT_EQ(listOf(Index.rowsOf(A)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(listOf(Index.rowsOf(B)), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(Index.rowsOf(Idle).empty());

  const std::vector<double> X = {0.25, 0.5, 0.75};
  service::QueryResult E =
      service::queryRep(Sys, Reps, "a()", Role::Source, X, &Index);
  ASSERT_EQ(E.Constraints.size(), 2u);
  EXPECT_EQ(E.text(0), "a()^source + 0.5*a()^source <= b()^sink + 0.50");
  EXPECT_DOUBLE_EQ(E.Constraints[0].Residual, -0.625);
  EXPECT_TRUE(E.Constraints[0].Caps);
  EXPECT_TRUE(E.Constraints[1].Caps)
      << "a variable on both sides is listed once, as capped";
  expectSameExplanation(
      E, service::queryRep(Sys, Reps, "a()", Role::Source, X));

  service::QueryResult None =
      service::queryRep(Sys, Reps, "idle()", Role::Sanitizer, X, &Index);
  EXPECT_TRUE(None.Found);
  EXPECT_TRUE(None.Constraints.empty());
  expectSameExplanation(
      None, service::queryRep(Sys, Reps, "idle()", Role::Sanitizer, X));
}

/// The JSON and text answers, byte for byte, on the scan and on the index.
TEST(ExplainTest, AnswerBytesArePinnedOnBothPaths) {
  // A rep string holding every kind of byte JSON must escape.
  const std::string Odd = "we\"ird\\rep\x01" "()";
  const RepTable Reps = testutil::repTableOf({{Odd}, {"b()"}, {"idle()"}});
  auto Id = [&](std::string_view Rep) { return testutil::repIdOf(Reps, Rep); };
  constraints::ConstraintSystem Sys;
  constraints::VarId A = Sys.Vars.varFor(Id(Odd), Role::Source);
  constraints::VarId B = Sys.Vars.varFor(Id("b()"), Role::Sink);
  Sys.Vars.varFor(Id("idle()"), Role::Sanitizer);
  // Row 0 repeats A within a side, row 1 demands A through a non-unit
  // coefficient, row 2 has an empty side and does not mention A.
  Sys.Constraints.add({{A, 1.0f}, {A, 0.5f}}, {{B, 1.0f}}, 0.5);
  Sys.Constraints.add({{B, 1.0f}}, {{A, 0.25f}}, 0.75);
  Sys.Constraints.add({{B, 1.0f}}, {}, 0.0);
  Sys.Pinned.emplace_back(A, 1.0);
  constraints::RowIndex Index = constraints::buildRowIndex(Sys);
  const std::vector<double> X = {1.0, 0.25, 0.0};

  auto Expect = [&](const std::string &Rep, Role R,
                    const std::vector<double> &At, const std::string &Json,
                    const std::string &Text) {
    SCOPED_TRACE(Rep + "^" + roleName(R));
    const constraints::RowIndex *Paths[] = {nullptr, &Index};
    for (const constraints::RowIndex *Rows : Paths) {
      SCOPED_TRACE(Rows ? "indexed" : "scanned");
      service::QueryResult Q = service::queryRep(Sys, Reps, Rep, R, At, Rows);
      EXPECT_EQ(service::renderQueryJson(Q), Json);
      EXPECT_EQ(service::renderQueryText(Q), Text);
    }
  };

  const std::string OddJson = "we\\\"ird\\\\rep\\u0001()";
  const std::string Row0 = Odd + "^source + 0.5*" + Odd +
                           "^source <= b()^sink + 0.50";
  const std::string Row1 = "b()^sink <= 0.25*" + Odd + "^source + 0.75";
  const std::string Row0Json = OddJson + "^source + 0.5*" + OddJson +
                               "^source <= b()^sink + 0.50";
  const std::string Row1Json = "b()^sink <= 0.25*" + OddJson +
                               "^source + 0.75";
  Expect(Odd, Role::Source, X,
         "{\"rep\":\"" + OddJson +
             "\",\"role\":\"source\",\"found\":true,\"score\":1.000000,"
             "\"pinned\":true,\"pinned_value\":1.000000,\"constraints\":["
             "{\"kind\":\"caps\",\"residual\":0.750000,\"text\":\"" +
             Row0Json +
             "\"},{\"kind\":\"demands\",\"residual\":-0.750000,"
             "\"text\":\"" +
             Row1Json + "\"}]}",
         Odd + " as source: score 1.000 (pinned to 1 by the seed)\n"
               "2 constraint(s) mention it:\n"
               "  [caps it, residual +0.750] " +
             Row0 + "\n  [demands it, residual -0.750] " + Row1 + "\n");
  // No assignment: every score and residual reads 0.
  Expect(Odd, Role::Source, {},
         "{\"rep\":\"" + OddJson +
             "\",\"role\":\"source\",\"found\":true,\"score\":0.000000,"
             "\"pinned\":true,\"pinned_value\":1.000000,\"constraints\":["
             "{\"kind\":\"caps\",\"residual\":0.000000,\"text\":\"" +
             Row0Json +
             "\"},{\"kind\":\"demands\",\"residual\":0.000000,"
             "\"text\":\"" +
             Row1Json + "\"}]}",
         Odd + " as source: score 0.000 (pinned to 1 by the seed)\n"
               "2 constraint(s) mention it:\n"
               "  [caps it, residual +0.000] " +
             Row0 + "\n  [demands it, residual +0.000] " + Row1 + "\n");
  Expect("b()", Role::Sink, X,
         "{\"rep\":\"b()\",\"role\":\"sink\",\"found\":true,"
         "\"score\":0.250000,\"pinned\":false,\"pinned_value\":0.000000,"
         "\"constraints\":[{\"kind\":\"demands\",\"residual\":0.750000,"
         "\"text\":\"" +
             Row0Json +
             "\"},{\"kind\":\"caps\",\"residual\":-0.750000,\"text\":\"" +
             Row1Json +
             "\"},{\"kind\":\"caps\",\"residual\":0.250000,"
             "\"text\":\"b()^sink <= 0 + 0.00\"}]}",
         "b() as sink: score 0.250\n3 constraint(s) mention it:\n"
         "  [demands it, residual +0.750] " +
             Row0 + "\n  [caps it, residual -0.750] " + Row1 +
             "\n  [caps it, residual +0.250] b()^sink <= 0 + 0.00\n");
  Expect("idle()", Role::Sanitizer, X,
         "{\"rep\":\"idle()\",\"role\":\"sanitizer\",\"found\":true,"
         "\"score\":0.000000,\"pinned\":false,\"pinned_value\":0.000000,"
         "\"constraints\":[]}",
         "idle() as sanitizer: score 0.000\n0 constraint(s) mention it:\n");
  // A rep without a variable in the role, and a rep never seen.
  for (const std::string &Missing : {std::string("b()"), Odd + "x"})
    Expect(Missing, Role::Source, X,
           "{\"rep\":\"" + jsonEscape(Missing) +
               "\",\"role\":\"source\",\"found\":false,"
               "\"score\":0.000000,\"pinned\":false,"
               "\"pinned_value\":0.000000,\"constraints\":[]}",
           Missing + " as source: score 0.000\n0 constraint(s) mention it:\n");
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
  EventId A = G.addEvent(EventKind::Call, 0, File, {}, {"weird\"rep()"});
  EventId B = G.addEvent(EventKind::Call, 0, File, {}, {"snk()"});
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
