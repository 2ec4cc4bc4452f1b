//===- examples/explore_graph.cpp - Inspect one file's artifacts ----------===//
//
// Walks the paper's running example (Fig. 2a) through every front-end
// stage and prints the intermediate artifacts: the AST, the propagation
// graph with event representations (Fig. 2b), and the generated linear
// constraints (Fig. 2c).
//
//===----------------------------------------------------------------------===//

#include "constraints/ConstraintGen.h"
#include "propgraph/GraphBuilder.h"
#include "pyast/AstPrinter.h"
#include "pyast/Parser.h"

#include <cstdio>

using namespace seldon;

int main() {
  // Fig. 2a of the paper.
  const char *Source =
      "from yak.web import app\n"
      "from flask import request\n"
      "from werkzeug import secure_filename\n"
      "import os\n"
      "\n"
      "blog_dir = app.config['PATH']\n"
      "\n"
      "@app.route('/media/', methods=['POST'])\n"
      "def media():\n"
      "    filename = request.files['f'].filename\n"
      "    filename = secure_filename(filename)\n"
      "    path = os.path.join(blog_dir, filename)\n"
      "    if not os.path.exists(path):\n"
      "        request.files['f'].save(path)\n";

  std::printf("=== Source (paper Fig. 2a) ===\n%s\n", Source);

  // The graph build parses the module itself; parse it here once more
  // only to show the AST.
  pyast::AstContext Ctx;
  std::vector<pyast::ParseError> Errors;
  const pyast::ModuleNode *Ast = pyast::parseSource(Ctx, Source, &Errors);
  if (!Errors.empty()) {
    std::printf("parse error: %s\n", Errors.front().Message.c_str());
    return 1;
  }

  std::printf("=== AST ===\n%s\n", pyast::dumpAst(Ast).c_str());

  pysem::Project Proj("fig2a");
  const pysem::ModuleInfo &Module = Proj.addModule("fig2a/app.py", Source);

  propgraph::PropagationGraph Graph =
      propgraph::buildModuleGraph(Proj, Module);
  std::printf("=== Propagation graph (paper Fig. 2b): %zu events, %zu "
              "edges ===\n",
              Graph.numEvents(), Graph.numEdges());
  for (const propgraph::Event &E : Graph.events()) {
    std::printf("  [%u] %-10s %s\n", E.Id,
                propgraph::eventKindName(E.Kind), E.primaryRep().c_str());
    for (size_t I = 1; I < E.Reps.size(); ++I)
      std::printf("        backoff: %s\n", E.Reps[I].c_str());
    for (propgraph::EventId To : Graph.successors(E.Id))
      std::printf("        --> [%u] %s\n", To,
                  Graph.event(To).primaryRep().c_str());
  }

  // Seeds as in the paper's example: the sanitizer is known.
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("a: werkzeug.secure_filename()\n");
  propgraph::RepTable Reps(
      std::make_shared<const propgraph::PropagationGraph>(Graph));
  constraints::GenOptions Opts;
  Opts.RepCutoff = 1; // Single file: keep every representation.
  constraints::ConstraintSystem Sys =
      constraints::generateConstraints(Graph, Reps, Seed, Opts);

  std::printf("\n=== Linear constraints (paper Fig. 2c): %zu constraints, "
              "%zu variables ===\n",
              Sys.Constraints.size(), Sys.Vars.numVars());
  auto TermName = [&](const solver::Term &T) {
    std::string Out;
    if (T.Coef != 1.0f)
      Out += std::to_string(T.Coef) + "*";
    Out += Reps.repString(Sys.Vars.repOf(T.Var));
    Out += "^";
    Out += propgraph::roleName(Sys.Vars.roleOf(T.Var));
    return Out;
  };
  size_t Shown = 0;
  for (const solver::LinearConstraint &C : Sys.Constraints) {
    if (++Shown > 12) {
      std::printf("  ... (%zu more)\n", Sys.Constraints.size() - 12);
      break;
    }
    std::string Line = "  ";
    for (size_t I = 0; I < C.Lhs.size(); ++I)
      Line += (I ? " + " : "") + TermName(C.Lhs[I]);
    Line += " <= ";
    for (size_t I = 0; I < C.Rhs.size(); ++I)
      Line += TermName(C.Rhs[I]) + " + ";
    Line += "C";
    std::printf("%s\n", Line.c_str());
  }
  return 0;
}
