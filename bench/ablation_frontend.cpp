//===- bench/ablation_frontend.cpp - Frontend-knob ablations --------------===//
//
// Measures each propagation-graph construction knob's contribution on the
// same corpus:
//
//  * points-to pass off (§5.2's alias-borne field flows disappear);
//  * locals() modeling off (§5.2);
//  * precise inlining on (beyond paper: local wrapper bodies own the flow);
//  * cross-module linking on (beyond paper: project-local helper modules);
//  * warm-started retraining (beyond paper: production retraining cost).
//
// Each row reports graph size, learned predictions, exact precision, and
// the seed-only + inferred-spec taint reports.
//
//===----------------------------------------------------------------------===//

#include "eval/ExperimentDriver.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <iostream>

using namespace seldon;
using namespace seldon::eval;
using propgraph::Role;

namespace {

struct RowResult {
  size_t Edges = 0;
  size_t Predicted = 0;
  double Precision = 0.0;
  size_t SeedReports = 0;
  size_t FullReports = 0;
  double Seconds = 0.0;
};

RowResult runConfig(const corpus::Corpus &Data,
                    const infer::PipelineOptions &Opts) {
  RowResult Out;
  infer::Session S(Opts);
  S.addProjects(Data.Projects);
  Timer Clock;
  S.generateConstraints(Data.Seed); // Builds the graph first.
  infer::PipelineResult R = S.solve();
  Out.Seconds = Clock.seconds();
  Out.Edges = R.Graph->numEdges();

  size_t Correct = 0;
  for (Role Ro : {Role::Source, Role::Sanitizer, Role::Sink}) {
    RolePrecision P = exactPrecision(R.Learned, Data.Truth, Data.Seed, Ro,
                                     ScoreThreshold);
    Out.Predicted += P.Predicted;
    Correct += P.Correct;
  }
  Out.Precision = Out.Predicted
                      ? static_cast<double>(Correct) / Out.Predicted
                      : 0.0;

  taint::TaintAnalyzer Analyzer(*R.Graph);
  taint::RoleResolver SeedOnly(&Data.Seed.Spec, nullptr);
  taint::RoleResolver Both(&Data.Seed.Spec, &R.Learned, ScoreThreshold);
  Out.SeedReports = Analyzer.analyze(SeedOnly).size();
  Out.FullReports = Analyzer.analyze(Both).size();
  return Out;
}

} // namespace

int main() {
  corpus::CorpusOptions CorpusOpts = standardCorpusOptions();
  CorpusOpts.PUtilsSanitizer = 0.3;
  corpus::Corpus Data = corpus::generateCorpus(CorpusOpts);

  std::cout << "=== Ablation: frontend construction knobs ===\n\n";
  TablePrinter Table({"Configuration", "Edges", "# Predicted", "Precision",
                      "Seed reports", "Inferred reports", "Time (s)"});

  struct Config {
    const char *Name;
    void (*Apply)(infer::PipelineOptions &);
  };
  const Config Configs[] = {
      {"Paper defaults", [](infer::PipelineOptions &) {}},
      {"No points-to pass",
       [](infer::PipelineOptions &O) { O.Build.UsePointsTo = false; }},
      {"No locals() modeling",
       [](infer::PipelineOptions &O) { O.Build.ModelLocals = false; }},
      {"Precise inlining",
       [](infer::PipelineOptions &O) { O.Build.PreciseInlining = true; }},
      {"Cross-module linking",
       [](infer::PipelineOptions &O) { O.Build.CrossModuleFlows = true; }},
  };

  for (const Config &C : Configs) {
    infer::PipelineOptions Opts = standardPipelineOptions();
    C.Apply(Opts);
    RowResult R = runConfig(Data, Opts);
    Table.addRow({C.Name, std::to_string(R.Edges),
                  std::to_string(R.Predicted), percent(R.Precision),
                  std::to_string(R.SeedReports),
                  std::to_string(R.FullReports),
                  formatString("%.2f", R.Seconds)});
  }
  Table.print(std::cout);

  // Warm-start retraining cost: retrain on the same corpus from the
  // previous solution with a small budget and verify the solution holds.
  {
    infer::PipelineOptions Opts = standardPipelineOptions();
    // One Session, two solves: the retrain reuses the parsed graph and the
    // generated constraint system, exactly the production retraining path.
    infer::Session S(Opts);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    Timer Clock;
    infer::PipelineResult Full = S.solve();
    double FullSeconds = Clock.seconds();
    S.options().Solve.MaxIterations = 50;
    S.options().WarmStart = &Full.Learned;
    Clock.reset();
    infer::PipelineResult Retrained = S.solve();
    double RetrainedSeconds = Clock.seconds();
    size_t Kept = 0, Total = 0;
    for (Role Ro : {Role::Source, Role::Sanitizer, Role::Sink})
      for (const auto &[Rep, Score] : Full.Learned.ranked(Ro, ScoreThreshold)) {
        ++Total;
        Kept += Retrained.Learned.score(Rep, Ro) >= ScoreThreshold;
      }
    std::cout << formatString(
        "\nWarm-started retraining (50 iterations vs %d cold): keeps "
        "%zu/%zu predictions in\n%.2fs instead of %.2fs.\n",
        Opts.Solve.MaxIterations, Kept, Total, RetrainedSeconds,
        FullSeconds);
  }

  std::cout << "\nExpected shape: removing the points-to pass drops the "
               "alias-borne edges; precise\ninlining and cross-module "
               "linking cut seed-only false positives; warm starts make\n"
               "retraining nearly free.\n";
  return 0;
}
