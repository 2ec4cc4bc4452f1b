//===- eval/ExperimentDriver.cpp - Shared experiment plumbing -------------===//

#include "eval/ExperimentDriver.h"

#include "support/StrUtil.h"

#include <cstdlib>

using namespace seldon;
using namespace seldon::eval;

int seldon::eval::envInt(const char *Name, int Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  return std::atoi(Value);
}

corpus::CorpusOptions seldon::eval::standardCorpusOptions() {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = envInt("SELDON_PROJECTS", 300);
  Opts.Seed = static_cast<uint64_t>(envInt("SELDON_SEED", 42));
  return Opts;
}

infer::PipelineOptions seldon::eval::standardPipelineOptions() {
  infer::PipelineOptions Opts;
  Opts.Solve.MaxIterations = envInt("SELDON_SOLVER_ITERS", 600);
  Opts.Solve.LearningRate = 0.02;
  return Opts;
}

CorpusRun
seldon::eval::runStandardExperiment(const corpus::CorpusOptions &CorpusOpts,
                                    const infer::PipelineOptions &PipelineOpts) {
  CorpusRun Run;
  Run.Data = corpus::generateCorpus(CorpusOpts);
  infer::Session S(PipelineOpts);
  S.addProjects(Run.Data.Projects);
  S.generateConstraints(Run.Data.Seed);
  Run.Pipeline = S.solve();
  return Run;
}

std::vector<taint::Violation>
seldon::eval::analyzeCorpus(const CorpusRun &Run, bool UseLearned) {
  taint::RoleResolver Roles(&Run.Data.Seed.Spec,
                            UseLearned ? &Run.Pipeline.Learned : nullptr,
                            ScoreThreshold);
  taint::TaintAnalyzer Analyzer(*Run.Pipeline.Graph);
  return Analyzer.analyze(Roles);
}

std::string seldon::eval::percent(double Fraction) {
  return formatString("%.1f%%", Fraction * 100.0);
}
