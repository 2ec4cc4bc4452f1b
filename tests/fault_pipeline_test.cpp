//===- tests/fault_pipeline_test.cpp - Fault-tolerant runtime -------------===//
//
// The contract of the fault-tolerant pipeline runtime: an injected failure
// in any registered fault point quarantines exactly the faulted work (or
// recovers from it), the run over the survivors is byte-identical to a run
// that never contained the faulted projects — at any Jobs value — and
// every deviation is recorded in RunHealth. Faults are armed through the
// deterministic support/FaultInjection.h registry, so these tests behave
// identically under TSan and at any thread count.
//
//===----------------------------------------------------------------------===//

#include "infer/Pipeline.h"
#include "spec/SpecIO.h"
#include "support/FaultInjection.h"
#include "TestCorpus.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

using namespace seldon;
using namespace seldon::infer;
using seldon::testutil::addProjectsExcept;
using seldon::testutil::makeCorpus;
using seldon::testutil::makeScratchDir;

namespace {

/// Every test disarms the process-global fault registry on both sides, so
/// suites sharing this binary never contaminate each other.
class FaultPipelineTest : public ::testing::Test {
protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override {
    fault::reset();
    ::unsetenv("SELDON_FAULT");
  }
};

PipelineOptions testOptions(unsigned Jobs) {
  PipelineOptions Opts;
  Opts.Solve.MaxIterations = 200;
  Opts.Jobs = Jobs;
  return Opts;
}

/// Runs the staged pipeline over all of \p Data with \p Opts.
PipelineResult runFull(const corpus::Corpus &Data, PipelineOptions Opts) {
  Session S(std::move(Opts));
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  return S.solve();
}

/// Runs the pipeline over \p Data minus the projects in \p Skip — the
/// reference a quarantined run must match byte for byte.
PipelineResult runSurvivors(const corpus::Corpus &Data, unsigned Jobs,
                            std::initializer_list<size_t> Skip) {
  Session S(testOptions(Jobs));
  addProjectsExcept(S, Data, Skip);
  S.generateConstraints(Data.Seed);
  return S.solve();
}

std::string specBytes(const PipelineResult &R) {
  return spec::writeLearnedSpec(R.Learned);
}

//===----------------------------------------------------------------------===//
// Fault registry
//===----------------------------------------------------------------------===//

TEST_F(FaultPipelineTest, SpecParsingAcceptsAllPointNames) {
  EXPECT_FALSE(fault::enabled());
  EXPECT_TRUE(fault::configure("parse:0,graph-build:1,cache-read:2,"
                               "cache-write:3,constraint-gen:4,"
                               "solver-step:*"));
  EXPECT_TRUE(fault::enabled());
  fault::reset();
  EXPECT_FALSE(fault::enabled());
}

TEST_F(FaultPipelineTest, SpecParsingRejectsMalformedSpecs) {
  std::string Error;
  EXPECT_FALSE(fault::configure("bogus-point:0", &Error));
  EXPECT_NE(Error.find("bogus-point"), std::string::npos);
  EXPECT_FALSE(fault::configure("parse", &Error));
  EXPECT_FALSE(fault::configure("parse:abc", &Error));
  EXPECT_FALSE(fault::configure("parse:", &Error));
  // A failed configure leaves nothing armed.
  EXPECT_FALSE(fault::enabled());
}

TEST_F(FaultPipelineTest, KeyedArmsAreOneShotStarArmsPersist) {
  ASSERT_TRUE(fault::configure("parse:3,solver-step:*"));
  EXPECT_FALSE(fault::shouldTrip(fault::Point::Parse, 2));
  EXPECT_TRUE(fault::shouldTrip(fault::Point::Parse, 3));
  EXPECT_FALSE(fault::shouldTrip(fault::Point::Parse, 3))
      << "a keyed arm is consumed by its first trip";
  EXPECT_TRUE(fault::shouldTrip(fault::Point::SolverStep, 0));
  EXPECT_TRUE(fault::shouldTrip(fault::Point::SolverStep, 9))
      << "a * arm never wears out";
  EXPECT_EQ(fault::tripCount(fault::Point::Parse), 1u);
  EXPECT_EQ(fault::tripCount(fault::Point::SolverStep), 2u);
  EXPECT_EQ(fault::totalTrips(), 3u);
}

TEST_F(FaultPipelineTest, ConfigureFromEnvReadsSeldonFault) {
  ::setenv("SELDON_FAULT", "graph-build:7", 1);
  ASSERT_TRUE(fault::configureFromEnv());
  EXPECT_TRUE(fault::enabled());
  EXPECT_TRUE(fault::shouldTrip(fault::Point::GraphBuild, 7));

  ::setenv("SELDON_FAULT", "not a spec", 1);
  std::string Error;
  EXPECT_FALSE(fault::configureFromEnv(&Error));
  EXPECT_FALSE(Error.empty());

  ::unsetenv("SELDON_FAULT");
  EXPECT_TRUE(fault::configureFromEnv());
}

TEST_F(FaultPipelineTest, MaybeThrowRaisesInjectedFault) {
  ASSERT_TRUE(fault::configure("cache-read:4"));
  EXPECT_NO_THROW(fault::maybeThrow(fault::Point::CacheRead, 3));
  try {
    fault::maybeThrow(fault::Point::CacheRead, 4);
    FAIL() << "armed point must throw";
  } catch (const fault::InjectedFault &E) {
    EXPECT_NE(std::string(E.what()).find("cache-read"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Project quarantine
//===----------------------------------------------------------------------===//

TEST_F(FaultPipelineTest, QuarantinedRunMatchesSurvivorRunAtAnyJobs) {
  corpus::Corpus Data = makeCorpus(11);
  std::string Survivors = specBytes(runSurvivors(Data, 1, {2, 5}));

  for (unsigned Jobs : {1u, 4u}) {
    ASSERT_TRUE(fault::configure("parse:2,parse:5"));
    PipelineResult R = runFull(Data, testOptions(Jobs));
    fault::reset();

    ASSERT_EQ(R.Health.Quarantined.size(), 2u) << "Jobs=" << Jobs;
    EXPECT_EQ(R.Health.Quarantined[0].Index, 2u);
    EXPECT_EQ(R.Health.Quarantined[0].Name, Data.Projects[2].name());
    EXPECT_EQ(R.Health.Quarantined[1].Index, 5u);
    EXPECT_NE(R.Health.Quarantined[0].Reason.find("injected fault"),
              std::string::npos);
    EXPECT_EQ(R.status(), RunStatus::Degraded);
    EXPECT_EQ(specBytes(R), Survivors)
        << "Jobs=" << Jobs
        << ": quarantined run must be byte-identical to the survivor run";
  }
}

TEST_F(FaultPipelineTest, GraphBuildFaultQuarantinesToo) {
  corpus::Corpus Data = makeCorpus(11);
  ASSERT_TRUE(fault::configure("graph-build:3"));
  PipelineResult R = runFull(Data, testOptions(2));
  fault::reset();

  ASSERT_EQ(R.Health.Quarantined.size(), 1u);
  EXPECT_EQ(R.Health.Quarantined[0].Index, 3u);
  EXPECT_EQ(specBytes(R), specBytes(runSurvivors(Data, 1, {3})));
}

TEST_F(FaultPipelineTest, StrictModeRethrowsLowestIndexFailure) {
  corpus::Corpus Data = makeCorpus(11);
  for (unsigned Jobs : {1u, 4u}) {
    ASSERT_TRUE(fault::configure("parse:5,parse:2"));
    PipelineOptions Opts = testOptions(Jobs);
    Opts.Strict = true;
    Session S(Opts);
    S.addProjects(Data.Projects);
    try {
      S.buildGraph();
      FAIL() << "strict mode must rethrow (Jobs=" << Jobs << ")";
    } catch (const fault::InjectedFault &E) {
      // Project 2 fails first in task order; strict surfaces the lowest
      // index whatever subset of arms tripped before the short-circuit.
      EXPECT_NE(std::string(E.what()).find("#2"), std::string::npos)
          << "Jobs=" << Jobs << ": " << E.what();
    }
    fault::reset();
  }
}

//===----------------------------------------------------------------------===//
// Cache faults are transparent
//===----------------------------------------------------------------------===//

TEST_F(FaultPipelineTest, CacheReadFaultDegradesToRebuild) {
  corpus::Corpus Data = makeCorpus(13);
  std::string Dir = makeScratchDir("fault-cache");

  PipelineOptions Warm = testOptions(2);
  Session SWarm(Warm);
  SWarm.enableCache(Dir);
  SWarm.addProjects(Data.Projects);
  SWarm.generateConstraints(Data.Seed);
  std::string Clean = specBytes(SWarm.solve());

  ASSERT_TRUE(fault::configure("cache-read:*"));
  Session S(testOptions(2));
  S.enableCache(Dir);
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  PipelineResult R = S.solve();
  fault::reset();

  EXPECT_EQ(specBytes(R), Clean) << "the cache must stay transparent";
  EXPECT_EQ(R.Health.Quarantined.size(), 0u);
  EXPECT_GE(R.Health.CacheIncidents.size(), Data.Projects.size());
  EXPECT_EQ(R.status(), RunStatus::Clean)
      << "degraded cache reads do not perturb results";
}

TEST_F(FaultPipelineTest, CacheWriteFaultSkipsWriteBack) {
  corpus::Corpus Data = makeCorpus(13);
  std::string Clean = specBytes(runFull(Data, testOptions(2)));

  ASSERT_TRUE(fault::configure("cache-write:*"));
  Session S(testOptions(2));
  S.enableCache(makeScratchDir("fault-cache-write"));
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  PipelineResult R = S.solve();
  fault::reset();

  EXPECT_EQ(specBytes(R), Clean);
  EXPECT_GE(R.Health.CacheIncidents.size(), Data.Projects.size());
  EXPECT_EQ(R.status(), RunStatus::Clean);
  EXPECT_EQ(R.Cache.Stores, 0u) << "every write-back was skipped";
}

//===----------------------------------------------------------------------===//
// Constraint generation is all-or-nothing
//===----------------------------------------------------------------------===//

TEST_F(FaultPipelineTest, ConstraintGenFaultPropagates) {
  corpus::Corpus Data = makeCorpus(11);
  ASSERT_TRUE(fault::configure("constraint-gen:0"));
  Session S(testOptions(1));
  S.addProjects(Data.Projects);
  EXPECT_THROW(S.generateConstraints(Data.Seed), fault::InjectedFault);
}

//===----------------------------------------------------------------------===//
// Solver numeric guards
//===----------------------------------------------------------------------===//

TEST_F(FaultPipelineTest, SolverRecoversFromPoisonedIteration) {
  corpus::Corpus Data = makeCorpus(11);
  ASSERT_TRUE(fault::configure("solver-step:0"));
  PipelineResult R = runFull(Data, testOptions(1));
  fault::reset();

  EXPECT_GE(R.Solve.NonFiniteSteps, 1);
  EXPECT_GE(R.Solve.Recoveries, 1);
  EXPECT_FALSE(R.Solve.FellBack)
      << "a one-shot poison must recover, not fall back";
  for (double X : R.Solve.X)
    EXPECT_TRUE(std::isfinite(X));
  EXPECT_TRUE(std::isfinite(R.Solve.FinalObjective));

  EXPECT_EQ(R.status(), RunStatus::Degraded);
}

TEST_F(FaultPipelineTest, SolverFallsBackWhenEveryStepIsPoisoned) {
  corpus::Corpus Data = makeCorpus(11);
  ASSERT_TRUE(fault::configure("solver-step:*"));
  PipelineResult R = runFull(Data, testOptions(1));
  fault::reset();

  EXPECT_TRUE(R.Solve.FellBack);
  EXPECT_EQ(R.Solve.Recoveries, solver::MaxRecoveries)
      << "the ladder is bounded";
  for (double X : R.Solve.X)
    EXPECT_TRUE(std::isfinite(X)) << "fallback returns a finite iterate";
  EXPECT_TRUE(std::isfinite(R.Solve.FinalObjective));
  EXPECT_EQ(R.status(), RunStatus::Degraded);
}

TEST_F(FaultPipelineTest, CleanRunUnaffectedByGuards) {
  corpus::Corpus Data = makeCorpus(11);
  PipelineResult R = runFull(Data, testOptions(1));
  EXPECT_EQ(R.Solve.NonFiniteSteps, 0);
  EXPECT_EQ(R.Solve.Recoveries, 0);
  EXPECT_FALSE(R.Solve.FellBack);
  EXPECT_FALSE(R.Solve.DeadlineExpired);
  EXPECT_EQ(R.status(), RunStatus::Clean);
}

//===----------------------------------------------------------------------===//
// Deadlines
//===----------------------------------------------------------------------===//

TEST_F(FaultPipelineTest, SolverBudgetStopsTheLoopEarly) {
  corpus::Corpus Data = makeCorpus(11);
  PipelineOptions Opts = testOptions(1);
  Session S(Opts);
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  // Armed only now: the build and constraint stages run unbounded, and
  // the run deadline stops the solver loop through the chained ShouldStop.
  S.options().DeadlineSeconds = 1e-9;
  PipelineResult R = S.solve();

  EXPECT_TRUE(R.Solve.DeadlineExpired);
  EXPECT_LT(R.Solve.Iterations, Opts.Solve.MaxIterations);
  for (double X : R.Solve.X)
    EXPECT_TRUE(std::isfinite(X));
  EXPECT_FALSE(R.Health.DeadlineExpired)
      << "the stopped solve reports its stop in R.Solve";
  EXPECT_EQ(R.status(), RunStatus::Degraded);
}

TEST_F(FaultPipelineTest, SolveDeadlineDescribesOnlyTheLatestSolve) {
  corpus::Corpus Data = makeCorpus(11);
  Session S(testOptions(1));
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);

  S.options().Solve.ShouldStop = [] { return true; };
  PipelineResult Stopped = S.solve();
  EXPECT_TRUE(Stopped.Solve.DeadlineExpired);
  EXPECT_EQ(Stopped.status(), RunStatus::Degraded);

  // A complete re-solve of the same system is clean again.
  S.options().Solve.ShouldStop = nullptr;
  PipelineResult Complete = S.solve();
  EXPECT_FALSE(Complete.Solve.DeadlineExpired);
  EXPECT_FALSE(Complete.Health.DeadlineExpired);
  EXPECT_EQ(Complete.Health.DeadlineStage, "");
  EXPECT_EQ(Complete.status(), RunStatus::Clean);
  EXPECT_FALSE(S.health().degraded());

  // An expiry in the build stage describes the session's graph, so it
  // stays reported through every later solve.
  PipelineOptions Opts = testOptions(1);
  Opts.DeadlineSeconds = 1e-9;
  Session Expired(Opts);
  Expired.addProjects(Data.Projects);
  Expired.generateConstraints(Data.Seed);
  for (int Solve = 0; Solve < 2; ++Solve) {
    PipelineResult R = Expired.solve();
    EXPECT_TRUE(R.Health.DeadlineExpired) << "solve " << Solve;
    EXPECT_EQ(R.Health.DeadlineStage, "parse") << "solve " << Solve;
    EXPECT_EQ(R.status(), RunStatus::Degraded) << "solve " << Solve;
  }
}

TEST_F(FaultPipelineTest, ScopedOptionsRestoreEveryFieldAfterAThrow) {
  corpus::Corpus Data = makeCorpus(11);
  Session S(testOptions(1));
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  spec::LearnedSpec Outer = S.solve().Learned;
  S.options().WarmStart = &Outer;
  const std::string Reference = specBytes(S.solve());
  const PipelineOptions Before = S.options();

  spec::LearnedSpec Inner;
  constraints::FeedbackSet Verdicts;
  Verdicts.accept("web.read()", propgraph::Role::Source);
  int Iterations = 0;
  try {
    ScopedOptions Scope(S);
    PipelineOptions &P = S.options();
    P.Build.UsePointsTo = false;
    P.Gen.C = 2.0;
    P.Gen.RepCutoff = 1;
    P.Lambda = 0.9;
    P.Solve.MaxIterations = 3;
    P.Solve.LearningRate = 0.5;
    P.Solve.OnIteration = [&Iterations](int, double) { ++Iterations; };
    P.Solve.ShouldStop = []() -> bool {
      throw std::runtime_error("stopped mid-solve");
    };
    P.WarmStart = &Inner;
    P.Feedback = &Verdicts;
    P.FeedbackOpts.AcceptWeight = 4.0;
    P.CollapseForLearning = true;
    P.Jobs = 2;
    P.Strict = true;
    P.DeadlineSeconds = 3600.0;
    S.solve();
    FAIL() << "the stop condition throws out of solve()";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "stopped mid-solve");
  }

  const PipelineOptions &P = S.options();
  EXPECT_EQ(P.Build.UsePointsTo, Before.Build.UsePointsTo);
  EXPECT_EQ(P.Gen.C, Before.Gen.C);
  EXPECT_EQ(P.Gen.RepCutoff, Before.Gen.RepCutoff);
  EXPECT_EQ(P.Lambda, Before.Lambda);
  EXPECT_EQ(P.Solve.MaxIterations, Before.Solve.MaxIterations);
  EXPECT_EQ(P.Solve.LearningRate, Before.Solve.LearningRate);
  EXPECT_FALSE(P.Solve.OnIteration);
  EXPECT_FALSE(P.Solve.ShouldStop);
  EXPECT_EQ(P.WarmStart, &Outer);
  EXPECT_EQ(P.Feedback, nullptr);
  EXPECT_EQ(P.FeedbackOpts.AcceptWeight, Before.FeedbackOpts.AcceptWeight);
  EXPECT_EQ(P.CollapseForLearning, Before.CollapseForLearning);
  EXPECT_EQ(P.Jobs, Before.Jobs);
  EXPECT_EQ(P.Strict, Before.Strict);
  EXPECT_EQ(P.DeadlineSeconds, Before.DeadlineSeconds);

  // The restored session solves exactly as before the scope, and the
  // callback installed inside it never fires again.
  Iterations = 0;
  EXPECT_EQ(specBytes(S.solve()), Reference);
  EXPECT_EQ(Iterations, 0);
}

TEST_F(FaultPipelineTest, RunDeadlineQuarantinesUnbuiltProjects) {
  corpus::Corpus Data = makeCorpus(11);
  PipelineOptions Opts = testOptions(2);
  Opts.DeadlineSeconds = 1e-9; // Expired before the first project builds.
  Session S(Opts);
  S.addProjects(Data.Projects);
  S.buildGraph();

  const RunHealth &H = S.health();
  EXPECT_EQ(H.Quarantined.size(), Data.Projects.size());
  EXPECT_TRUE(H.DeadlineExpired);
  EXPECT_EQ(H.DeadlineStage, "parse");
  for (const QuarantinedProject &Q : H.Quarantined)
    EXPECT_NE(Q.Reason.find("deadline"), std::string::npos);
  EXPECT_EQ(S.graph().events().size(), 0u);
}

//===----------------------------------------------------------------------===//
// Full sweep: every registered point, no crash, no hang
//===----------------------------------------------------------------------===//

TEST_F(FaultPipelineTest, SweepEveryPointCompletesWithSurvivorIdentity) {
  corpus::Corpus Data = makeCorpus(17);
  std::string AllClean = specBytes(runFull(Data, testOptions(1)));
  std::string Without1 = specBytes(runSurvivors(Data, 1, {1}));

  struct Case {
    const char *Spec;
    const char *Expect; // "survivor", "clean", or "throws".
  } Cases[] = {
      {"parse:1", "survivor"},       {"graph-build:1", "survivor"},
      {"cache-read:1", "clean"},     {"cache-write:1", "clean"},
      {"constraint-gen:0", "throws"}, {"solver-step:0", "recovers"},
  };
  for (const Case &C : Cases) {
    for (unsigned Jobs : {1u, 4u}) {
      SCOPED_TRACE(std::string(C.Spec) + " Jobs=" + std::to_string(Jobs));
      ASSERT_TRUE(fault::configure(C.Spec));
      Session S(testOptions(Jobs));
      if (std::string(C.Spec).rfind("cache-", 0) == 0)
        S.enableCache(makeScratchDir("fault-sweep"));
      S.addProjects(Data.Projects);
      if (std::string(C.Expect) == "throws") {
        EXPECT_THROW(S.generateConstraints(Data.Seed),
                     fault::InjectedFault);
        fault::reset();
        continue;
      }
      S.generateConstraints(Data.Seed);
      PipelineResult R = S.solve();
      fault::reset();
      if (std::string(C.Expect) == "survivor")
        EXPECT_EQ(specBytes(R), Without1);
      else if (std::string(C.Expect) == "clean")
        EXPECT_EQ(specBytes(R), AllClean);
      else
        EXPECT_GE(R.Solve.Recoveries, 1);
    }
  }
}

} // namespace
