//===- bench/table2_merlin_scalability.cpp - Paper Tab. 2 -----------------===//
//
// Regenerates Table 2: Merlin's scalability on a small application ("Flask
// API", 2,128 lines in the paper) versus a larger one ("Flask-Admin",
// 23,103 lines), for collapsed and uncollapsed propagation graphs. The
// paper reports minutes on the small app and a >10h timeout on the large
// one; we scale the inference budget down (SELDON_MERLIN_TIMEOUT seconds,
// default 30) and expect the same shape: factor counts explode with
// application size and inference exceeds the budget on the large app while
// Seldon handles it in a fraction of a second.
//
//===----------------------------------------------------------------------===//

#include "eval/ExperimentDriver.h"
#include "infer/Pipeline.h"
#include "merlin/MerlinPipeline.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <iostream>

using namespace seldon;
using namespace seldon::merlin;

namespace {

size_t fileCount(const pysem::Project &Proj) { return Proj.modules().size(); }

} // namespace

int main() {
  double Timeout = eval::envInt("SELDON_MERLIN_TIMEOUT", 30);
  corpus::ApiUniverse Universe = corpus::ApiUniverse::standard();
  spec::SeedSpec Seed = Universe.seedSpec();

  // Small ~ "Flask API"; large ~ "Flask-Admin" (10x the files, denser).
  pysem::Project Small =
      corpus::generateSingleProject(Universe, 11, 3, 6, "flask_api_like");
  pysem::Project Large = corpus::generateSingleProject(
      Universe, 12, eval::envInt("SELDON_MERLIN_LARGE_FILES", 100), 10,
      "flask_admin_like");

  std::cout << "=== Table 2: Statistics on specification learning with "
               "Merlin ===\n\n";
  TablePrinter Table({"Repository", "Files", "Graph type",
                      "Candidates (src/san/sink)", "Factors",
                      "Inference Time"});

  struct Config {
    const pysem::Project *Proj;
    const char *Name;
    bool Collapsed;
  };
  const Config Configs[] = {
      {&Small, "Flask-API-like", true},
      {&Small, "Flask-API-like", false},
      {&Large, "Flask-Admin-like", true},
      {&Large, "Flask-Admin-like", false},
  };

  double SeldonLargeSeconds = 0.0;
  for (const Config &C : Configs) {
    propgraph::PropagationGraph Graph = propgraph::buildProjectGraph(*C.Proj);
    MerlinOptions Opts;
    Opts.Collapsed = C.Collapsed;
    Opts.Bp.TimeoutSeconds = Timeout;
    Opts.Bp.MaxIterations = 1 << 28; // The budget, not the iteration count,
                                     // terminates long runs.
    MerlinResult R = runMerlin(Graph, Seed, Opts);
    Table.addRow({C.Name, std::to_string(fileCount(*C.Proj)),
                  C.Collapsed ? "Collapsed" : "Uncollapsed",
                  formatString("%zu/%zu/%zu", R.NumCandidates[0],
                               R.NumCandidates[1], R.NumCandidates[2]),
                  std::to_string(R.NumFactors),
                  R.TimedOut ? formatString("> %.0fs (timeout)", Timeout)
                             : formatString("%.2fs", R.Seconds)});
  }
  Table.print(std::cout);

  // Seldon on the large application, for the "< 20 seconds" contrast the
  // paper draws (§7.4).
  solver::CompileStats SolverStats;
  {
    infer::PipelineOptions Opts = eval::standardPipelineOptions();
    std::vector<pysem::Project> One;
    One.push_back(std::move(Large));
    infer::Session S(Opts);
    S.addProjects(One);
    S.buildGraph();
    Timer Inference; // Constraint generation and the solve.
    S.generateConstraints(Seed);
    infer::PipelineResult R = S.solve();
    SeldonLargeSeconds = Inference.seconds();
    SolverStats = R.SolverStats;
  }
  std::cout << formatString(
      "\nSeldon on the large application: %.2fs "
      "(paper: < 20s on Flask-Admin while Merlin needed > 10h).\n",
      SeldonLargeSeconds);
  std::cout << formatString(
      "Compiled solver: %zu constraints -> %zu rows (dedup %.2fx), "
      "%zu non-zeros.\n",
      SolverStats.RowsBefore, SolverStats.RowsAfter,
      SolverStats.dedupRatio(), SolverStats.NonZeros);
  std::cout << "Paper reference: Flask API 2min/3min; Flask-Admin > 10h "
               "(both graph types).\n";
  return 0;
}
