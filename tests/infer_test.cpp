//===- tests/infer_test.cpp - End-to-end inference + taint analysis -------===//
//
// These tests exercise the paper's central claims on micro-corpora with
// known ground truth: each Fig. 4 template must let the optimizer infer the
// role of an unlabeled API from its interaction with seeded APIs.
//
//===----------------------------------------------------------------------===//

#include "infer/Pipeline.h"
#include "taint/TaintAnalyzer.h"
#include "TestCorpus.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace seldon;
using namespace seldon::infer;
using namespace seldon::propgraph;

namespace {

/// One-shot convenience over the staged Session API, so the Fig. 4
/// micro-corpus tests read as a single learning step.
PipelineResult runPipeline(const std::vector<pysem::Project> &Corpus,
                           const spec::SeedSpec &Seed,
                           const PipelineOptions &Opts) {
  Session S(Opts);
  S.addProjects(Corpus);
  S.generateConstraints(Seed);
  return S.solve();
}

/// Builds a corpus of \p Copies single-file projects with identical
/// \p Source (distinct paths), so representations clear the frequency
/// cutoff of 5 and cross-file learning applies.
std::vector<pysem::Project> replicate(std::string_view Source, int Copies) {
  std::vector<pysem::Project> Corpus;
  for (int I = 0; I < Copies; ++I) {
    pysem::Project P("proj" + std::to_string(I));
    P.addModule("proj" + std::to_string(I) + "/app.py", Source);
    Corpus.push_back(std::move(P));
  }
  return Corpus;
}

PipelineOptions testOptions() {
  PipelineOptions Opts;
  Opts.Solve.MaxIterations = 3000;
  Opts.Solve.LearningRate = 0.02;
  return Opts;
}

TEST(PipelineTest, LearnsUnknownSourceFromFig4a) {
  // unknown.read() -> seeded sanitizer -> seeded sink: Fig. 4a forces the
  // upstream event to be a source.
  auto Corpus = replicate("import web\nimport clean\nimport store\n"
                          "x = web.read()\n"
                          "y = clean.scrub(x)\n"
                          "store.put(y)\n",
                          8);
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("a: clean.scrub()\ni: store.put()\n");
  PipelineResult R = runPipeline(Corpus, Seed, testOptions());
  EXPECT_GT(R.Learned.score("web.read()", Role::Source), 0.3)
      << "Fig. 4a must raise the unknown source";
  EXPECT_LT(R.Learned.score("web.read()", Role::Sink), 0.2);
}

TEST(PipelineTest, LearnsUnknownSinkFromFig4b) {
  auto Corpus = replicate("import web\nimport clean\nimport db\n"
                          "x = web.read()\n"
                          "y = clean.scrub(x)\n"
                          "db.exec(y)\n",
                          8);
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\na: clean.scrub()\n");
  PipelineResult R = runPipeline(Corpus, Seed, testOptions());
  EXPECT_GT(R.Learned.score("db.exec()", Role::Sink), 0.3)
      << "Fig. 4b must raise the unknown sink";
}

TEST(PipelineTest, LearnsUnknownSanitizerFromFig4c) {
  auto Corpus = replicate("import web\nimport mystery\nimport db\n"
                          "x = web.read()\n"
                          "y = mystery.filter(x)\n"
                          "db.exec(y)\n",
                          8);
  spec::SeedSpec Seed = spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  PipelineResult R = runPipeline(Corpus, Seed, testOptions());
  EXPECT_GT(R.Learned.score("mystery.filter()", Role::Sanitizer), 0.3)
      << "Fig. 4c must raise the sanitizer between source and sink";
}

TEST(PipelineTest, EmptySeedLearnsNothing) {
  // §7 Q6: with an empty seed, all-zeros solves the system trivially.
  auto Corpus = replicate("import web\nimport clean\nimport db\n"
                          "db.exec(clean.scrub(web.read()))\n",
                          8);
  spec::SeedSpec Empty;
  PipelineResult R = runPipeline(Corpus, Empty, testOptions());
  for (const auto &[Rep, Scores] : R.Learned.all())
    for (Role Ro : {Role::Source, Role::Sanitizer, Role::Sink})
      EXPECT_LT(Scores[Ro], 0.05) << Rep;
}

TEST(PipelineTest, UnrelatedApisStayCold) {
  auto Corpus = replicate("import web\nimport clean\nimport db\nimport misc\n"
                          "x = web.read()\n"
                          "y = clean.scrub(x)\n"
                          "db.exec(y)\n"
                          "misc.tick()\n", // No flow to/from the chain.
                          8);
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\na: clean.scrub()\n");
  PipelineResult R = runPipeline(Corpus, Seed, testOptions());
  for (Role Ro : {Role::Source, Role::Sanitizer, Role::Sink})
    EXPECT_LT(R.Learned.score("misc.tick()", Ro), 0.05);
}

TEST(PipelineTest, CrossProjectLearning) {
  // The evidence for db.exec() being a sink exists only in project A;
  // project B uses db.exec() with an unknown upstream API. Cross-project
  // variable sharing must transfer the learned sink.
  std::vector<pysem::Project> Corpus;
  for (int I = 0; I < 8; ++I) {
    pysem::Project A("a" + std::to_string(I));
    A.addModule("a" + std::to_string(I) + "/app.py",
                "import web\nimport clean\nimport db\n"
                "db.exec(clean.scrub(web.read()))\n");
    Corpus.push_back(std::move(A));
    pysem::Project B("b" + std::to_string(I));
    B.addModule("b" + std::to_string(I) + "/app.py",
                "import other\nimport db\n"
                "db.exec(other.fetch())\n");
    Corpus.push_back(std::move(B));
  }
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\na: clean.scrub()\n");
  PipelineResult R = runPipeline(Corpus, Seed, testOptions());
  EXPECT_GT(R.Learned.score("db.exec()", Role::Sink), 0.3);
}

TEST(PipelineTest, CollapsedLearningStillInfers) {
  // §6.4: the collapsed graph is usable for specification learning. The
  // three-event chain survives contraction, so the sanitizer must still
  // be inferred; the result graph stays uncollapsed for taint analysis.
  auto Corpus = replicate("import web\nimport mystery\nimport db\n"
                          "db.exec(mystery.filter(web.read()))\n",
                          8);
  spec::SeedSpec Seed = spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  PipelineOptions Opts = testOptions();
  Opts.CollapseForLearning = true;
  PipelineResult R = runPipeline(Corpus, Seed, Opts);
  EXPECT_GT(R.Learned.score("mystery.filter()", Role::Sanitizer), 0.3);
  EXPECT_TRUE(R.Graph->isAcyclic())
      << "the taint-analysis graph must remain uncollapsed";
  EXPECT_EQ(R.Graph->numEvents(), 8u * 3u);
}

TEST(PipelineTest, WarmStartPreservesSolutionUnderTinyBudget) {
  auto Corpus = replicate("import web\nimport mystery\nimport db\n"
                          "db.exec(mystery.filter(web.read()))\n",
                          8);
  spec::SeedSpec Seed = spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");

  PipelineResult Full = runPipeline(Corpus, Seed, testOptions());
  double Converged = Full.Learned.score("mystery.filter()", Role::Sanitizer);
  ASSERT_GT(Converged, 0.3);

  // Retraining with a tiny iteration budget: the warm start retains the
  // previous solution, while a cold start cannot get there.
  PipelineOptions Tiny = testOptions();
  Tiny.Solve.MaxIterations = 20;
  PipelineResult Cold = runPipeline(Corpus, Seed, Tiny);
  Tiny.WarmStart = &Full.Learned;
  PipelineResult Warm = runPipeline(Corpus, Seed, Tiny);

  EXPECT_NEAR(Warm.Learned.score("mystery.filter()", Role::Sanitizer),
              Converged, 0.1)
      << "warm start must stay at the converged solution";
  EXPECT_LT(Cold.Learned.score("mystery.filter()", Role::Sanitizer),
            Converged - 0.2)
      << "20 cold iterations must not be enough";
}

TEST(PipelineTest, StatisticsPopulated) {
  auto Corpus = replicate("import web\nimport db\ndb.exec(web.read())\n", 6);
  spec::SeedSpec Seed = spec::SeedSpec::parse("o: web.read()\n");
  PipelineResult R = runPipeline(Corpus, Seed, testOptions());
  EXPECT_EQ(R.Graph->files().size(), 6u);
  EXPECT_GT(R.System.NumCandidates, 0u);
  EXPECT_GT(R.System.Constraints.size(), 0u);
  EXPECT_GE(R.System.AvgBackoffOptions, 1.0);
}

TEST(PipelineTest, ResultsShareTheSessionGraph) {
  auto Corpus = replicate("import web\nimport db\ndb.exec(web.read())\n", 6);
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  PipelineResult Solved, Restored;
  size_t Events = 0;
  {
    Session S(testOptions());
    S.addProjects(Corpus);
    S.generateConstraints(Seed);
    Solved = S.solve();
    ASSERT_TRUE(S.restoreSolve(Solved.Solve, Restored));
    EXPECT_EQ(Solved.Graph.get(), &S.graph());
    EXPECT_EQ(Restored.Graph.get(), &S.graph());
    Events = S.graph().numEvents();
  }
  // The session is gone; the graph lives on in its results.
  ASSERT_EQ(Solved.Graph, Restored.Graph);
  EXPECT_EQ(Solved.Graph->numEvents(), Events);
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  EXPECT_EQ(taint::TaintAnalyzer(*Solved.Graph).analyze(Roles).size(), 6u);
}

//===----------------------------------------------------------------------===//
// Taint analyzer
//===----------------------------------------------------------------------===//

struct TaintFixture {
  pysem::Project Proj;
  PropagationGraph Graph;

  explicit TaintFixture(std::string_view Source) {
    const pysem::ModuleInfo &M = Proj.addModule("p/app.py", Source);
    std::vector<pyast::ParseError> Errors;
    Graph = buildModuleGraph(Proj, M, BuildOptions(), &Errors);
    EXPECT_TRUE(Errors.empty());
  }
};

TEST(TaintAnalyzerTest, DetectsUnsanitizedFlow) {
  TaintFixture F("import web\nimport db\n"
                 "db.exec(web.read())\n");
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(F.Graph);
  auto Violations = Analyzer.analyze(Roles);
  ASSERT_EQ(Violations.size(), 1u);
  EXPECT_EQ(F.Graph.event(Violations[0].Source).primaryRep(), "web.read()");
  EXPECT_EQ(F.Graph.event(Violations[0].Sink).primaryRep(), "db.exec()");
  ASSERT_GE(Violations[0].Path.size(), 2u);
  EXPECT_EQ(Violations[0].Path.front(), Violations[0].Source);
  EXPECT_EQ(Violations[0].Path.back(), Violations[0].Sink);
}

TEST(TaintAnalyzerTest, SanitizerBlocksFlow) {
  TaintFixture F("import web\nimport clean\nimport db\n"
                 "db.exec(clean.scrub(web.read()))\n");
  spec::SeedSpec Seed = spec::SeedSpec::parse(
      "o: web.read()\na: clean.scrub()\ni: db.exec()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(F.Graph);
  EXPECT_TRUE(Analyzer.analyze(Roles).empty());
}

TEST(TaintAnalyzerTest, UnsanitizedBranchStillReported) {
  // One path sanitized, one not: the violation must be found via the
  // unsanitized branch.
  TaintFixture F("import web\nimport clean\nimport db\n"
                 "x = web.read()\n"
                 "if flag:\n"
                 "    x = clean.scrub(x)\n"
                 "db.exec(x)\n");
  spec::SeedSpec Seed = spec::SeedSpec::parse(
      "o: web.read()\na: clean.scrub()\ni: db.exec()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(F.Graph);
  auto Violations = Analyzer.analyze(Roles);
  ASSERT_EQ(Violations.size(), 1u);
}

TEST(TaintAnalyzerTest, LearnedSpecExtendsSeed) {
  TaintFixture F("import web\nimport db\n"
                 "db.exec(web.read())\n");
  spec::SeedSpec Seed = spec::SeedSpec::parse("o: web.read()\n");
  // Seed alone: no sink known, no violation.
  taint::RoleResolver SeedOnly(&Seed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(F.Graph);
  EXPECT_TRUE(Analyzer.analyze(SeedOnly).empty());
  // Learned spec supplies the sink.
  spec::LearnedSpec Learned;
  Learned.setScore("db.exec()", Role::Sink, 0.6);
  taint::RoleResolver Both(&Seed.Spec, &Learned, 0.1);
  EXPECT_EQ(Analyzer.analyze(Both).size(), 1u);
}

TEST(TaintAnalyzerTest, CandidateMaskRespected) {
  // An object read whose rep is (bogusly) sink-labeled must not become a
  // sink: reads are source-only candidates (§5.1).
  TaintFixture F("import web\n"
                 "x = web.read()\n"
                 "y = x.field\n");
  spec::TaintSpec Spec;
  Spec.add("web.read()", Role::Source);
  Spec.add("web.read().field", Role::Sink);
  taint::RoleResolver Roles(&Spec, nullptr);
  taint::TaintAnalyzer Analyzer(F.Graph);
  EXPECT_TRUE(Analyzer.analyze(Roles).empty());
}

TEST(TaintAnalyzerTest, AffectedProjectCount) {
  pysem::Project P1("alpha"), P2("beta");
  P1.addModule("alpha/app.py", "import web\nimport db\ndb.exec(web.read())\n");
  P2.addModule("beta/app.py", "import web\nimport db\ndb.exec(web.read())\n");
  PropagationGraph G = buildProjectGraph(P1);
  G.append(buildProjectGraph(P2));
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(G);
  auto Violations = Analyzer.analyze(Roles);
  EXPECT_EQ(Violations.size(), 2u);
  EXPECT_EQ(taint::countAffectedProjects(G, Violations), 2u);
}

TEST(TaintAnalyzerTest, EndToEndInferThenAnalyze) {
  // Learn the sink from big code, then find a violation in a project where
  // the flow is NOT sanitized — undetectable with the seed spec alone
  // (the paper's 97% claim in miniature).
  std::vector<pysem::Project> Corpus;
  for (int I = 0; I < 8; ++I) {
    pysem::Project A("train" + std::to_string(I));
    A.addModule("train" + std::to_string(I) + "/app.py",
                "import web\nimport clean\nimport db\n"
                "db.exec(clean.scrub(web.read()))\n");
    Corpus.push_back(std::move(A));
  }
  pysem::Project Victim("victim");
  Victim.addModule("victim/app.py",
                   "import web\nimport db\ndb.exec(web.read())\n");
  Corpus.push_back(std::move(Victim));

  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\na: clean.scrub()\n");
  PipelineResult R = runPipeline(Corpus, Seed, testOptions());

  taint::RoleResolver SeedOnly(&Seed.Spec, nullptr);
  taint::RoleResolver WithLearned(&Seed.Spec, &R.Learned, 0.1);
  taint::TaintAnalyzer Analyzer(*R.Graph);
  size_t Before = Analyzer.analyze(SeedOnly).size();
  size_t After = Analyzer.analyze(WithLearned).size();
  EXPECT_EQ(Before, 0u);
  EXPECT_GE(After, 1u);
}

/// The search analyze() once ran per source, with whole-graph arrays
/// allocated afresh for every source: the reference its shared,
/// epoch-stamped search must reproduce violation for violation.
std::vector<taint::Violation>
perSourceReference(const PropagationGraph &G,
                   const taint::RoleResolver &Roles) {
  std::vector<taint::Violation> Out;
  std::vector<RoleMask> Mask = taint::TaintAnalyzer(G).resolveRoles(Roles);
  for (const Event &SrcEvent : G.events()) {
    if (!maskHas(Mask[SrcEvent.Id], Role::Source))
      continue;
    EventId Src = SrcEvent.Id;
    std::vector<EventId> Parent(G.numEvents(), InvalidEvent);
    std::vector<bool> Seen(G.numEvents(), false);
    std::vector<EventId> Queue{Src};
    Seen[Src] = true;
    for (size_t Head = 0; Head < Queue.size(); ++Head) {
      EventId Cur = Queue[Head];
      for (EventId Next : G.successors(Cur)) {
        if (Seen[Next])
          continue;
        Seen[Next] = true;
        Parent[Next] = Cur;
        if (maskHas(Mask[Next], Role::Sanitizer))
          continue;
        if (maskHas(Mask[Next], Role::Sink)) {
          taint::Violation V;
          V.Source = Src;
          V.Sink = Next;
          V.FileIdx = SrcEvent.FileIdx;
          for (EventId Walk = Next; Walk != InvalidEvent;
               Walk = Parent[Walk])
            V.Path.push_back(Walk);
          std::reverse(V.Path.begin(), V.Path.end());
          Out.push_back(std::move(V));
        }
        Queue.push_back(Next);
      }
    }
  }
  return Out;
}

void expectSameViolations(const std::vector<taint::Violation> &Got,
                          const std::vector<taint::Violation> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Source, Want[I].Source) << "violation " << I;
    EXPECT_EQ(Got[I].Sink, Want[I].Sink) << "violation " << I;
    EXPECT_EQ(Got[I].Path, Want[I].Path) << "violation " << I;
    EXPECT_EQ(Got[I].FileIdx, Want[I].FileIdx) << "violation " << I;
  }
}

TEST(TaintAnalyzerTest, MatchesThePerSourceReference) {
  // A generated multi-project corpus under its learned spec. Its sources
  // reach shared events, so a search that mistook an earlier search's
  // stamps for its own would lose violations.
  corpus::Corpus Data = testutil::makeCorpus(/*Seed=*/21, /*NumProjects=*/32);
  PipelineOptions Opts;
  Opts.Solve.MaxIterations = 300;
  PipelineResult R = runPipeline(Data.Projects, Data.Seed, Opts);
  taint::RoleResolver Learned(&Data.Seed.Spec, &R.Learned, 0.1);
  std::vector<taint::Violation> Got =
      taint::TaintAnalyzer(*R.Graph).analyze(Learned);
  EXPECT_GT(Got.size(), 1u);
  expectSameViolations(Got, perSourceReference(*R.Graph, Learned));

  // A hand-built graph: the sink flows back into the first source, and
  // that source reaches the sink along a sanitized and a clean branch.
  // The second source lies on the first one's search, so its own search
  // must not walk the parents that search left behind.
  PropagationGraph G;
  uint32_t F = G.addFile("p/app.py");
  auto Add = [&](std::string_view Rep) {
    return G.addEvent(EventKind::Call, AllRolesMask, F, {}, {Rep});
  };
  EventId Src = Add("web.read()");
  EventId Scrub = Add("clean.scrub()");
  EventId Pass = Add("util.pass()");
  EventId Sink = Add("db.exec()");
  EventId Src2 = Add("web.read()");
  EventId Sink2 = Add("db.exec()");
  G.addEdges(std::vector<Edge>{{Src, Scrub},
                               {Src, Pass},
                               {Scrub, Sink},
                               {Pass, Sink},
                               {Scrub, Sink2},
                               {Sink, Src},
                               {Sink, Src2},
                               {Src2, Sink2}});
  spec::SeedSpec Seed = spec::SeedSpec::parse(
      "o: web.read()\na: clean.scrub()\ni: db.exec()\n");
  taint::RoleResolver Exact(&Seed.Spec, nullptr);
  Got = taint::TaintAnalyzer(G).analyze(Exact);
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0].Path, (std::vector<EventId>{Src, Pass, Sink}));
  EXPECT_EQ(Got[1].Path, (std::vector<EventId>{Src, Pass, Sink, Src2, Sink2}));
  EXPECT_EQ(Got[2].Path, (std::vector<EventId>{Src2, Sink2}));
  expectSameViolations(Got, perSourceReference(G, Exact));
}

} // namespace
