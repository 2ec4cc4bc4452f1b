//===- bench/table6_report_categories.cpp - Paper Tab. 6 ------------------===//
//
// Regenerates Table 6: classification of 25 randomly sampled bug reports,
// for the seed specification alone versus the inferred specification. The
// paper's shape: both discover a similar ratio of true vulnerable flows;
// the seed spec's false positives are dominated by missing sanitizers,
// while the inferred spec trades those for incorrect sources/sinks.
//
//===----------------------------------------------------------------------===//

#include "eval/ExperimentDriver.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace seldon;
using namespace seldon::eval;

int main() {
  CorpusRun Run = runStandardExperiment(standardCorpusOptions(),
                                        standardPipelineOptions());

  auto SeedReports = analyzeCorpus(Run, /*UseLearned=*/false);
  auto FullReports = analyzeCorpus(Run, /*UseLearned=*/true);
  const size_t SampleSize = 25;
  ReportBreakdown SeedB =
      classifyReports(*Run.Pipeline.Graph, SeedReports, Run.Data.Truth,
                      Run.Data.Flows, SampleSize, /*SampleSeed=*/11);
  ReportBreakdown FullB =
      classifyReports(*Run.Pipeline.Graph, FullReports, Run.Data.Truth,
                      Run.Data.Flows, SampleSize, /*SampleSeed=*/11);

  std::cout << "=== Table 6: Bug-report categories, seed vs inferred "
               "specification (25 sampled reports) ===\n\n";
  TablePrinter Table({"Reason", "Seed spec", "Inferred spec"});
  for (size_t C = 0; C < NumReportCategories; ++C) {
    ReportCategory Cat = static_cast<ReportCategory>(C);
    Table.addRow({reportCategoryName(Cat), percent(SeedB.fraction(Cat)),
                  percent(FullB.fraction(Cat))});
  }
  Table.print(std::cout);

  std::cout << "\nPaper reference: true vulnerabilities 24% vs 28%; missing "
               "sanitizer 40% vs 8%;\nincorrect sink 0% vs 24%; incorrect "
               "source 0% vs 8%.\n";
  return 0;
}
