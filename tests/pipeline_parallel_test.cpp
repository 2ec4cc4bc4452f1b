//===- tests/pipeline_parallel_test.cpp - Parallel == serial --------------===//
//
// The contract of the parallel pipeline: for any Jobs value the output is
// bit-identical to the serial run. These tests drive a generated corpus
// through the staged Session API with Jobs=1 and Jobs=4 and demand exact
// equality of the constraint system, the solve trace, and the learned
// specification, plus the staged-reuse and observer behaviour that the
// Session API adds.
//
//===----------------------------------------------------------------------===//

#include "corpus/CorpusGenerator.h"
#include "infer/Pipeline.h"
#include "spec/SpecIO.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

using namespace seldon;
using namespace seldon::infer;

namespace {

corpus::Corpus smallCorpus() {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = 24;
  Opts.Seed = 7;
  return corpus::generateCorpus(Opts);
}

PipelineOptions testOptions(unsigned Jobs) {
  PipelineOptions Opts;
  Opts.Solve.MaxIterations = 400;
  Opts.Jobs = Jobs;
  return Opts;
}

PipelineResult runWithJobs(const corpus::Corpus &Data, unsigned Jobs) {
  Session S(testOptions(Jobs));
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  return S.solve();
}

TEST(PipelineParallelTest, FourJobsBitIdenticalToSerial) {
  corpus::Corpus Data = smallCorpus();
  PipelineResult Serial = runWithJobs(Data, 1);
  PipelineResult Parallel = runWithJobs(Data, 4);

  EXPECT_EQ(Serial.JobsUsed, 1u);
  EXPECT_EQ(Parallel.JobsUsed, 4u);

  // Identical structure: graph, variable table, constraint system.
  ASSERT_EQ(Serial.Graph->events().size(), Parallel.Graph->events().size());
  ASSERT_EQ(Serial.System.Vars.numVars(), Parallel.System.Vars.numVars());
  for (uint32_t V = 0; V < Serial.System.Vars.numVars(); ++V) {
    EXPECT_EQ(Serial.System.Vars.repOf(V), Parallel.System.Vars.repOf(V));
    EXPECT_EQ(Serial.System.Vars.roleOf(V), Parallel.System.Vars.roleOf(V));
  }
  ASSERT_EQ(Serial.System.Constraints.size(),
            Parallel.System.Constraints.size());
  for (size_t I = 0; I < Serial.System.Constraints.size(); ++I) {
    const solver::LinearConstraint &A = Serial.System.Constraints[I];
    const solver::LinearConstraint &B = Parallel.System.Constraints[I];
    ASSERT_EQ(A.Lhs.size(), B.Lhs.size()) << "constraint " << I;
    ASSERT_EQ(A.Rhs.size(), B.Rhs.size()) << "constraint " << I;
    for (size_t T = 0; T < A.Lhs.size(); ++T) {
      EXPECT_EQ(A.Lhs[T].Var, B.Lhs[T].Var);
      EXPECT_EQ(A.Lhs[T].Coef, B.Lhs[T].Coef);
    }
    for (size_t T = 0; T < A.Rhs.size(); ++T) {
      EXPECT_EQ(A.Rhs[T].Var, B.Rhs[T].Var);
      EXPECT_EQ(A.Rhs[T].Coef, B.Rhs[T].Coef);
    }
  }
  EXPECT_EQ(Serial.System.Pinned, Parallel.System.Pinned);

  // Identical solve trace and scores — not merely close: bit-identical.
  EXPECT_EQ(Serial.Solve.Iterations, Parallel.Solve.Iterations);
  ASSERT_EQ(Serial.Solve.X.size(), Parallel.Solve.X.size());
  for (size_t I = 0; I < Serial.Solve.X.size(); ++I)
    EXPECT_EQ(Serial.Solve.X[I], Parallel.Solve.X[I]) << "variable " << I;

  // And therefore a byte-identical rendered specification.
  EXPECT_EQ(spec::writeLearnedSpec(Serial.Learned),
            spec::writeLearnedSpec(Parallel.Learned));
}

TEST(PipelineParallelTest, StagedReuseSkipsReparsing) {
  corpus::Corpus Data = smallCorpus();
  Session S(testOptions(4));
  S.addProjects(Data.Projects);
  S.buildGraph();
  ASSERT_TRUE(S.hasGraph());
  size_t Events = S.graph().events().size();

  S.generateConstraints(Data.Seed);
  PipelineResult First = S.solve();

  // Sweep a generation knob without re-parsing: the graph is untouched,
  // the constraint system changes.
  S.options().Gen.RepCutoff = First.System.NumCandidates > 0 ? 10 : 5;
  S.generateConstraints(Data.Seed);
  PipelineResult Second = S.solve();

  EXPECT_EQ(S.graph().events().size(), Events);
  EXPECT_EQ(First.Graph->events().size(), Second.Graph->events().size());
  EXPECT_NE(First.System.Constraints.size(),
            Second.System.Constraints.size())
      << "raising the cutoff must change the constraint system";

  // The re-run matches a fresh session configured the same way.
  PipelineOptions FreshOpts = testOptions(1);
  FreshOpts.Gen.RepCutoff = S.options().Gen.RepCutoff;
  Session Fresh(FreshOpts);
  Fresh.addProjects(Data.Projects);
  Fresh.generateConstraints(Data.Seed);
  PipelineResult FromFresh = Fresh.solve();
  EXPECT_EQ(spec::writeLearnedSpec(Second.Learned),
            spec::writeLearnedSpec(FromFresh.Learned));
}

/// Records every callback; checks the serialization contract.
class RecordingObserver : public ProgressObserver {
public:
  void onPhase(Phase P) override { Phases.push_back(P); }

  void onProjectGraphBuilt(size_t Done, size_t Total) override {
    // Done is strictly increasing because calls are serialized.
    EXPECT_EQ(Done, LastDone + 1);
    LastDone = Done;
    LastTotal = Total;
  }

  std::vector<Phase> Phases;
  size_t LastDone = 0;
  size_t LastTotal = 0;
};

TEST(PipelineParallelTest, ObserverSeesAllPhasesUnderParallelFrontend) {
  corpus::Corpus Data = smallCorpus();
  Session S(testOptions(4));
  RecordingObserver Obs;
  S.setObserver(&Obs);
  int SolveCalls = 0;
  S.options().Solve.OnIteration = [&SolveCalls](int, double) {
    ++SolveCalls;
  };
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  PipelineResult R = S.solve();

  ASSERT_EQ(Obs.Phases.size(), 3u);
  EXPECT_EQ(Obs.Phases[0], Phase::BuildGraph);
  EXPECT_EQ(Obs.Phases[1], Phase::GenerateConstraints);
  EXPECT_EQ(Obs.Phases[2], Phase::Solve);

  EXPECT_EQ(Obs.LastTotal, Data.Projects.size());
  EXPECT_EQ(Obs.LastDone, Data.Projects.size())
      << "every project must be reported";

  EXPECT_GT(SolveCalls, 0);
  EXPECT_EQ(SolveCalls, R.Solve.Iterations);
}

TEST(PipelineParallelTest, JobsZeroResolvesToHardwareConcurrency) {
  corpus::Corpus Data = smallCorpus();
  Session S(testOptions(0));
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  PipelineResult R = S.solve();
  EXPECT_GE(R.JobsUsed, 1u);
  PipelineResult Serial = runWithJobs(Data, 1);
  EXPECT_EQ(spec::writeLearnedSpec(R.Learned),
            spec::writeLearnedSpec(Serial.Learned));
}

} // namespace
