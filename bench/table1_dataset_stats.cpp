//===- bench/table1_dataset_stats.cpp - Paper Tab. 1 ----------------------===//
//
// Regenerates Table 1: statistics of the applications in the evaluation —
// number of candidate events, average number of backoff options per event,
// number of constraints, and number of source files.
//
// Paper values (44,250 GitHub files): 210,864 candidates / 1.73 backoff
// options / 504,982 constraints. Our corpus is smaller (scale it with
// SELDON_PROJECTS); the *ratios* (a handful of candidates per file, ~2.4
// constraints per candidate, backoff average well above 1) are the shape
// being reproduced.
//
//===----------------------------------------------------------------------===//

#include "eval/ExperimentDriver.h"
#include "propgraph/GraphStats.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace seldon;

int main() {
  eval::CorpusRun Run = eval::runStandardExperiment(
      eval::standardCorpusOptions(), eval::standardPipelineOptions());

  std::cout << "=== Table 1: Statistics on the applications in our "
               "evaluation ===\n\n";
  TablePrinter Table({"Statistic", "Value"});
  Table.addRow({"# Candidates",
                std::to_string(Run.Pipeline.System.NumCandidates)});
  Table.addRow({"Average # backoff options per event",
                formatString("%.2f", Run.Pipeline.System.AvgBackoffOptions)});
  Table.addRow({"# Constraints",
                std::to_string(Run.Pipeline.System.Constraints.size())});
  Table.addRow({"# Source files",
                std::to_string(Run.Pipeline.Graph->files().size())});
  Table.print(std::cout);

  std::cout << "\nSupplementary corpus statistics:\n";
  TablePrinter Extra({"Statistic", "Value"});
  Extra.addRow({"# Projects", std::to_string(Run.Data.Projects.size())});
  Extra.addRow({"# Lines of Python", std::to_string(Run.Data.TotalLines)});
  Extra.addRow({"# Events (incl. non-candidates)",
                std::to_string(Run.Pipeline.Graph->numEvents())});
  Extra.addRow({"# Flow edges",
                std::to_string(Run.Pipeline.Graph->numEdges())});
  Extra.addRow({"# Seed annotations",
                std::to_string(Run.Data.Seed.Spec.size())});
  Extra.addRow({"# Optimization variables",
                std::to_string(Run.Pipeline.System.Vars.numVars())});
  Extra.print(std::cout);

  std::cout << "\nGraph structure:\n"
            << propgraph::renderGraphStats(
                   propgraph::computeGraphStats(*Run.Pipeline.Graph));
  std::cout << "\nPaper reference (44,250 files): 210,864 candidates, 1.73 "
               "backoff options,\n504,982 constraints.\n";
  return 0;
}
