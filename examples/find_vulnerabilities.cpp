//===- examples/find_vulnerabilities.cpp - End-to-end bug finding ---------===//
//
// The paper's production scenario (§7, Q4/Q7): learn taint specifications
// from a corpus of web applications, then run the taint analyzer over a
// target application and print each violation with its witness path —
// including violations that are undetectable with the seed specification
// alone.
//
//===----------------------------------------------------------------------===//

#include "corpus/CorpusGenerator.h"
#include "infer/Pipeline.h"
#include "support/Timer.h"
#include "taint/TaintAnalyzer.h"

#include <cstdio>

using namespace seldon;

int main() {
  // 1. Learn from a generated corpus of web applications.
  corpus::CorpusOptions Opts;
  Opts.NumProjects = 120;
  corpus::Corpus Data = corpus::generateCorpus(Opts);
  std::printf("Training corpus: %zu projects, %zu files, %zu lines.\n",
              Data.Projects.size(), Data.NumFiles, Data.TotalLines);

  infer::Session Learn;
  Learn.addProjects(Data.Projects);
  Learn.buildGraph();
  Timer Inference; // Constraint generation and the solve.
  Learn.generateConstraints(Data.Seed);
  infer::PipelineResult Result = Learn.solve();
  std::printf("Learned %zu scored representations from %zu constraints "
              "in %.2fs.\n\n",
              Result.Learned.size(), Result.System.Constraints.size(),
              Inference.seconds());

  // 2. A target application that uses APIs the seed does not know: take
  //    the top inferred (non-seed) source and sink and write an app that
  //    pipes one into the other.
  auto TopInferred = [&](propgraph::Role R) -> std::string {
    for (const auto &[Rep, Score] : Result.Learned.ranked(R, 0.1)) {
      if (Data.Seed.Spec.rolesOf(Rep) != 0)
        continue;
      // Only simple module-level calls can be spliced into the victim app.
      if (Rep.find("weblib") == 0 && Rep.rfind("()") == Rep.size() - 2)
        return Rep.substr(0, Rep.size() - 2);
    }
    return std::string();
  };
  std::string SrcApi = TopInferred(propgraph::Role::Source);
  std::string SnkApi = TopInferred(propgraph::Role::Sink);
  if (SrcApi.empty() || SnkApi.empty()) {
    std::printf("no inferred weblib source/sink pair found; rerun with a "
                "larger corpus\n");
    return 1;
  }
  std::string SrcMod = SrcApi.substr(0, SrcApi.find('.'));
  std::string SnkMod = SnkApi.substr(0, SnkApi.find('.'));
  std::printf("Top inferred source: %s() | top inferred sink: %s()\n\n",
              SrcApi.c_str(), SnkApi.c_str());

  pysem::Project Victim("victim_app");
  Victim.addModule("victim_app/views.py",
                   "import " + SrcMod + "\n"
                   "import " + SnkMod + "\n"
                   "from flask import request\n"
                   "import flask\n"
                   "\n"
                   "def search():\n"
                   "    term = " + SrcApi + "(request)\n"
                   "    " + SnkApi + "(term)\n"
                   "\n"
                   "def greet():\n"
                   "    name = request.args.get('name')\n"
                   "    flask.make_response('<h1>' + name + '</h1>')\n");
  propgraph::PropagationGraph Graph = propgraph::buildProjectGraph(Victim);

  // 3. Analyze with the seed spec alone, then with the learned spec.
  taint::TaintAnalyzer Analyzer(Graph);
  taint::RoleResolver SeedOnly(&Data.Seed.Spec, nullptr);
  taint::RoleResolver WithLearned(&Data.Seed.Spec, &Result.Learned, 0.1);

  auto Print = [&](const char *Label,
                   const std::vector<taint::Violation> &Reports) {
    std::printf("%s: %zu violation(s)\n", Label, Reports.size());
    for (const taint::Violation &V : Reports) {
      std::printf("  [%s] flow:\n", Graph.files()[V.FileIdx].c_str());
      for (propgraph::EventId Id : V.Path) {
        const propgraph::Event &E = Graph.event(Id);
        std::printf("    %s (line %u)\n", E.primaryRep().c_str(),
                    E.Loc.Line);
      }
    }
  };
  auto SeedReports = Analyzer.analyze(SeedOnly);
  auto FullReports = Analyzer.analyze(WithLearned);
  Print("Seed specification only", SeedReports);
  std::printf("\n");
  Print("Seed + inferred specification", FullReports);

  std::printf("\nThe %s -> %s flow is invisible to the seed "
              "specification;\nonly the inferred roles expose it (the "
              "paper's '97%% undetectable' observation).\n",
              SrcApi.c_str(), SnkApi.c_str());
  return 0;
}
