//===- tests/eval_test.cpp - Tests for precision + report classification --===//

#include "eval/ExperimentDriver.h"
#include "eval/Precision.h"
#include "eval/ReportClassifier.h"
#include "propgraph/GraphBuilder.h"

#include <gtest/gtest.h>

using namespace seldon;
using namespace seldon::eval;
using namespace seldon::propgraph;

namespace {

//===----------------------------------------------------------------------===//
// Precision
//===----------------------------------------------------------------------===//

struct PrecisionFixture {
  spec::LearnedSpec Learned;
  corpus::GroundTruth Truth;
  spec::SeedSpec Seed;

  PrecisionFixture() {
    // Three correct predictions, one wrong, one seeded, one below zero.
    Learned.setScore("good1()", Role::Source, 0.9);
    Learned.setScore("good2()", Role::Source, 0.5);
    Learned.setScore("good3()", Role::Source, 0.2);
    Learned.setScore("bad()", Role::Source, 0.6);
    Learned.setScore("seeded()", Role::Source, 1.0);
    Learned.setScore("tiny()", Role::Source, 0.05);
    Truth.add("good1()", SourceMask);
    Truth.add("good2()", SourceMask);
    Truth.add("good3()", SourceMask);
    Truth.add("tiny()", SourceMask);
    Truth.add("seeded()", SourceMask);
    Seed.Spec.add("seeded()", Role::Source);
  }
};

TEST(PrecisionTest, ExactPrecisionExcludesSeedsAndThreshold) {
  PrecisionFixture F;
  RolePrecision P =
      exactPrecision(F.Learned, F.Truth, F.Seed, Role::Source, 0.1);
  EXPECT_EQ(P.Predicted, 4u); // good1-3 + bad; seeded excluded, tiny below.
  EXPECT_EQ(P.Correct, 3u);
  EXPECT_DOUBLE_EQ(P.precision(), 0.75);
}

TEST(PrecisionTest, PredictionsSortedByScore) {
  PrecisionFixture F;
  auto Preds = predictionsAbove(F.Learned, F.Truth, F.Seed, Role::Source, 0.1);
  ASSERT_EQ(Preds.size(), 4u);
  EXPECT_EQ(Preds[0].Rep, "good1()");
  EXPECT_EQ(Preds[1].Rep, "bad()");
  EXPECT_FALSE(Preds[1].Correct);
}

TEST(PrecisionTest, TopKPrecision) {
  PrecisionFixture F;
  RolePrecision Top2 = topKPrecision(F.Learned, F.Truth, F.Seed,
                                     Role::Source, 2);
  EXPECT_EQ(Top2.Predicted, 2u);
  EXPECT_EQ(Top2.Correct, 1u); // good1 + bad.
  RolePrecision Top100 = topKPrecision(F.Learned, F.Truth, F.Seed,
                                       Role::Source, 100);
  EXPECT_EQ(Top100.Predicted, 5u) << "capped at available predictions";
}

TEST(PrecisionTest, SampleDeterministicAndCapped) {
  PrecisionFixture F;
  auto S1 = sampledPredictions(F.Learned, F.Truth, F.Seed, Role::Source, 0.1,
                               2, 17);
  auto S2 = sampledPredictions(F.Learned, F.Truth, F.Seed, Role::Source, 0.1,
                               2, 17);
  ASSERT_EQ(S1.size(), 2u);
  EXPECT_EQ(S1[0].Rep, S2[0].Rep);
  EXPECT_GE(S1[0].Score, S1[1].Score) << "sample sorted by score";
}

TEST(PrecisionTest, CumulativePrecisionCurve) {
  std::vector<ScoredPrediction> Sample = {
      {"a", 0.9, true}, {"b", 0.8, true}, {"c", 0.5, false}, {"d", 0.2, true}};
  std::vector<double> Curve = cumulativePrecision(Sample);
  ASSERT_EQ(Curve.size(), 4u);
  EXPECT_DOUBLE_EQ(Curve[0], 1.0);
  EXPECT_DOUBLE_EQ(Curve[1], 1.0);
  EXPECT_NEAR(Curve[2], 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Curve[3], 0.75);
}

TEST(PrecisionTest, ExactF1CountsRecallOverNonSeedTruth) {
  PrecisionFixture F;
  RoleF1 R = exactF1(F.Learned, F.Truth, F.Seed, Role::Source, 0.1);
  EXPECT_EQ(R.Predicted, 4u); // good1-3 + bad; seeded excluded, tiny below.
  EXPECT_EQ(R.Correct, 3u);
  EXPECT_EQ(R.TruthReps, 4u); // good1-3 + tiny; seeded() excluded.
  EXPECT_DOUBLE_EQ(R.precision(), 0.75);
  EXPECT_DOUBLE_EQ(R.recall(), 0.75);
  EXPECT_DOUBLE_EQ(R.f1(), 0.75);
}

TEST(PrecisionTest, MacroF1AveragesRolesAndHitsTheRoleMemo) {
  PrecisionFixture F;
  // Source scores 0.75 F1; sanitizer and sink have no truth and no
  // predictions, contributing zero each.
  EXPECT_DOUBLE_EQ(macroF1(F.Learned, F.Truth, F.Seed, 0.1), 0.25);
  // A threshold sweep reuses the memoized role lists: the truth role maps
  // are derived exactly once no matter how many F1s are computed.
  for (double T : {0.05, 0.1, 0.3, 0.6, 0.9})
    macroF1(F.Learned, F.Truth, F.Seed, T);
  EXPECT_EQ(F.Truth.derivations(), 1u);
}

//===----------------------------------------------------------------------===//
// Report classification (Tab. 6)
//===----------------------------------------------------------------------===//

struct ReportFixture {
  pysem::Project Proj;
  PropagationGraph Graph;
  corpus::GroundTruth Truth;
  std::vector<corpus::GeneratedFlow> Flows;

  explicit ReportFixture(std::string_view Source) {
    const pysem::ModuleInfo &M = Proj.addModule("p/app.py", Source);
    std::vector<pyast::ParseError> Errors;
    Graph = buildModuleGraph(Proj, M, BuildOptions(), &Errors);
    EXPECT_TRUE(Errors.empty());
  }

  taint::Violation reportBetween(const std::string &SrcRep,
                                 const std::string &SnkRep) {
    taint::Violation V;
    for (const Event &E : Graph.events()) {
      if (E.primaryRep() == SrcRep)
        V.Source = E.Id;
      if (E.primaryRep() == SnkRep)
        V.Sink = E.Id;
    }
    EXPECT_NE(V.Source, InvalidEvent);
    EXPECT_NE(V.Sink, InvalidEvent);
    // Reconstruct some witness path via BFS reachability (direct flows in
    // these fixtures are short).
    V.Path = {V.Source};
    std::vector<EventId> R = Graph.reachableFrom(V.Source);
    for (EventId Mid : R)
      if (Mid != V.Sink &&
          std::find(R.begin(), R.end(), Mid) != R.end()) {
        // Insert intermediate events lying on a path (approximation:
        // events both reachable from source and reaching sink).
        auto Back = Graph.reachingTo(V.Sink);
        if (std::find(Back.begin(), Back.end(), Mid) != Back.end())
          V.Path.push_back(Mid);
      }
    V.Path.push_back(V.Sink);
    V.FileIdx = Graph.event(V.Source).FileIdx;
    return V;
  }
};

TEST(ReportClassifierTest, TrueVulnerability) {
  ReportFixture F("import web\nimport db\ndb.exec(web.read())\n");
  F.Truth.add("web.read()", SourceMask);
  F.Truth.add("db.exec()", SinkMask);
  F.Flows.push_back({"p/app.py", "web.read()", "db.exec()", "sqli", false,
                     true, false});
  auto V = F.reportBetween("web.read()", "db.exec()");
  EXPECT_EQ(classifyReport(F.Graph, V, F.Truth, F.Flows),
            ReportCategory::TrueVulnerability);
}

TEST(ReportClassifierTest, VulnerableNoBug) {
  ReportFixture F("import web\nimport db\ndb.exec(web.read())\n");
  F.Truth.add("web.read()", SourceMask);
  F.Truth.add("db.exec()", SinkMask);
  F.Flows.push_back({"p/app.py", "web.read()", "db.exec()", "xss", false,
                     false, false});
  auto V = F.reportBetween("web.read()", "db.exec()");
  EXPECT_EQ(classifyReport(F.Graph, V, F.Truth, F.Flows),
            ReportCategory::VulnerableNoBug);
}

TEST(ReportClassifierTest, IncorrectEndpoints) {
  ReportFixture F("import web\nimport db\ndb.exec(web.read())\n");
  F.Truth.add("web.read()", SourceMask);
  auto V = F.reportBetween("web.read()", "db.exec()");
  EXPECT_EQ(classifyReport(F.Graph, V, F.Truth, F.Flows),
            ReportCategory::IncorrectSink);

  corpus::GroundTruth OnlySink;
  OnlySink.add("db.exec()", SinkMask);
  EXPECT_EQ(classifyReport(F.Graph, V, OnlySink, F.Flows),
            ReportCategory::IncorrectSource);

  corpus::GroundTruth Neither;
  EXPECT_EQ(classifyReport(F.Graph, V, Neither, F.Flows),
            ReportCategory::IncorrectSourceAndSink);
}

TEST(ReportClassifierTest, MissingSanitizer) {
  ReportFixture F("import web\nimport clean\nimport db\n"
                  "db.exec(clean.scrub(web.read()))\n");
  F.Truth.add("web.read()", SourceMask);
  F.Truth.add("db.exec()", SinkMask);
  F.Truth.add("clean.scrub()", SanitizerMask);
  auto V = F.reportBetween("web.read()", "db.exec()");
  EXPECT_EQ(classifyReport(F.Graph, V, F.Truth, F.Flows),
            ReportCategory::MissingSanitizer);
}

TEST(ReportClassifierTest, WrongParameter) {
  ReportFixture F("import web\nimport db\n"
                  "data = web.read()\n"
                  "db.exec('static', meta=data)\n");
  F.Truth.add("web.read()", SourceMask);
  F.Truth.add("db.exec()", SinkMask);
  F.Flows.push_back({"p/app.py", "web.read()", "db.exec()", "sqli", false,
                     false, true});
  auto V = F.reportBetween("web.read()", "db.exec()");
  EXPECT_EQ(classifyReport(F.Graph, V, F.Truth, F.Flows),
            ReportCategory::WrongParameter);
}

TEST(ReportClassifierTest, BreakdownCountsAndSampling) {
  ReportFixture F("import web\nimport db\ndb.exec(web.read())\n");
  F.Truth.add("web.read()", SourceMask);
  F.Truth.add("db.exec()", SinkMask);
  F.Flows.push_back({"p/app.py", "web.read()", "db.exec()", "sqli", false,
                     true, false});
  auto V = F.reportBetween("web.read()", "db.exec()");
  std::vector<taint::Violation> Reports{V, V, V};
  ReportBreakdown All =
      classifyReports(F.Graph, Reports, F.Truth, F.Flows);
  EXPECT_EQ(All.Total, 3u);
  EXPECT_EQ(All.count(ReportCategory::TrueVulnerability), 3u);
  ReportBreakdown Sampled =
      classifyReports(F.Graph, Reports, F.Truth, F.Flows, 2, 5);
  EXPECT_EQ(Sampled.Total, 2u);
  EXPECT_DOUBLE_EQ(Sampled.fraction(ReportCategory::TrueVulnerability), 1.0);
}

//===----------------------------------------------------------------------===//
// Experiment driver smoke test (small end-to-end corpus run)
//===----------------------------------------------------------------------===//

TEST(ExperimentDriverTest, SmallCorpusEndToEnd) {
  corpus::CorpusOptions CorpusOpts;
  CorpusOpts.NumProjects = 100;
  CorpusOpts.Seed = 3;
  infer::PipelineOptions PipelineOpts;
  PipelineOpts.Solve.MaxIterations = 800;
  PipelineOpts.Solve.LearningRate = 0.02;

  CorpusRun Run = runStandardExperiment(CorpusOpts, PipelineOpts);
  EXPECT_GT(Run.Pipeline.System.NumCandidates, 100u);
  EXPECT_GT(Run.Pipeline.System.Constraints.size(), 10u);

  // Inferred specs must add reports over the seed-only run.
  auto SeedReports = analyzeCorpus(Run, /*UseLearned=*/false);
  auto FullReports = analyzeCorpus(Run, /*UseLearned=*/true);
  EXPECT_GT(FullReports.size(), SeedReports.size());

  // And the inferred spec must contain some correct predictions.
  RolePrecision P =
      exactPrecision(Run.Pipeline.Learned, Run.Data.Truth, Run.Data.Seed,
                     Role::Source, ScoreThreshold);
  EXPECT_GT(P.Predicted, 0u);
  EXPECT_GT(P.Correct, 0u);
}

TEST(ExperimentDriverTest, PercentFormatting) {
  EXPECT_EQ(percent(0.666), "66.6%");
  EXPECT_EQ(percent(0.0), "0.0%");
  EXPECT_EQ(percent(1.0), "100.0%");
}

} // namespace
