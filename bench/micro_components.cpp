//===- bench/micro_components.cpp - Component microbenchmarks -------------===//
//
// google-benchmark microbenchmarks of the pipeline stages: lexing, parsing,
// points-to solving, propagation-graph construction, constraint
// generation, one optimizer iteration, and taint analysis. These quantify
// where the per-file cost of Fig. 10's linear scaling goes.
//
// Two more cases time one `seldond` point-query answer (the walk over the
// variable's indexed rows plus its JSON) on a solved corpus of
// SELDON_PROJECTS generated projects (default 300), for a cold and a hot
// variable. Run them alone with --benchmark_filter=QueryAnswer.
//
//===----------------------------------------------------------------------===//

#include "constraints/ConstraintGen.h"
#include "constraints/Explain.h"
#include "corpus/CorpusGenerator.h"
#include "eval/ExperimentDriver.h"
#include "infer/Pipeline.h"
#include "merlin/MerlinPipeline.h"
#include "pyast/Lexer.h"
#include "pyast/Parser.h"
#include "service/QueryResult.h"
#include "taint/TaintAnalyzer.h"

#include <benchmark/benchmark.h>

#include <algorithm>

using namespace seldon;

namespace {

/// A representative generated source file, shared by the front-end
/// benchmarks.
const std::string &sampleSource() {
  static const std::string Source = [] {
    corpus::CorpusOptions Opts;
    Opts.NumProjects = 1;
    Opts.MinFilesPerProject = Opts.MaxFilesPerProject = 1;
    Opts.MinFlowsPerFile = Opts.MaxFlowsPerFile = 8;
    corpus::Corpus C = corpus::generateCorpus(Opts);
    // Re-render by regenerating the single project deterministically.
    corpus::ApiUniverse U = corpus::ApiUniverse::standard();
    pysem::Project P = corpus::generateSingleProject(U, 42, 1, 8, "bench");
    (void)C;
    // Projects do not retain text; lex/parse benchmarks need raw source,
    // so synthesize an equivalent realistic file here.
    std::string Out;
    Out += "from flask import request\n";
    Out += "import flask\nimport sqlite3\nimport bleach\n\n";
    for (int I = 0; I < 8; ++I) {
      std::string N = std::to_string(I);
      Out += "def handle_" + N + "():\n";
      Out += "    data_" + N + " = request.args.get('q')\n";
      Out += "    data_" + N + " = data_" + N + ".strip()\n";
      Out += "    clean_" + N + " = bleach.clean(data_" + N + ")\n";
      Out += "    flask.make_response(clean_" + N + ")\n";
      Out += "    sqlite3.connect(DB).cursor().execute('x' + data_" + N +
             ")\n";
    }
    return Out;
  }();
  return Source;
}

/// A small prebuilt corpus shared by the backend benchmarks.
struct BackendState {
  corpus::Corpus Data;
  propgraph::PropagationGraph Graph;
  propgraph::RepTable Reps;
  constraints::ConstraintSystem System;

  BackendState() {
    corpus::CorpusOptions Opts;
    Opts.NumProjects = 40;
    Data = corpus::generateCorpus(Opts);
    for (const pysem::Project &P : Data.Projects)
      Graph.append(propgraph::buildProjectGraph(P));
    Reps.countOccurrences(Graph);
    System = constraints::generateConstraints(Graph, Reps, Data.Seed);
  }

  static BackendState &get() {
    static BackendState State;
    return State;
  }
};

void BM_Lexer(benchmark::State &State) {
  const std::string &Source = sampleSource();
  for (auto _ : State) {
    pyast::Lexer Lexer(Source);
    benchmark::DoNotOptimize(Lexer.lexAll());
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_Lexer);

void BM_Parser(benchmark::State &State) {
  const std::string &Source = sampleSource();
  for (auto _ : State) {
    pyast::AstContext Ctx;
    benchmark::DoNotOptimize(pyast::parseSource(Ctx, Source));
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_Parser);

void BM_GraphBuild(benchmark::State &State) {
  pysem::Project Proj;
  const pysem::ModuleInfo &M = Proj.addModule("bench.py", sampleSource());
  for (auto _ : State)
    benchmark::DoNotOptimize(propgraph::buildModuleGraph(Proj, M));
}
BENCHMARK(BM_GraphBuild);

void BM_GraphBuildNoPointsTo(benchmark::State &State) {
  pysem::Project Proj;
  const pysem::ModuleInfo &M = Proj.addModule("bench.py", sampleSource());
  propgraph::BuildOptions Opts;
  Opts.UsePointsTo = false;
  for (auto _ : State)
    benchmark::DoNotOptimize(propgraph::buildModuleGraph(Proj, M, Opts));
}
BENCHMARK(BM_GraphBuildNoPointsTo);

void BM_ConstraintGen(benchmark::State &State) {
  BackendState &B = BackendState::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        constraints::generateConstraints(B.Graph, B.Reps, B.Data.Seed));
}
BENCHMARK(BM_ConstraintGen);

// The kernel's solve step: a single fused sweep over the coalesced CSR
// rows yields both the value and the gradient, on the tier SELDON_SIMD
// selects.
void BM_SolveIterationCompiled(benchmark::State &State) {
  BackendState &B = BackendState::get();
  solver::CompiledObjective Obj = B.System.makeCompiledObjective(0.1);
  std::vector<double> X = Obj.initialPoint();
  std::vector<double> Grad;
  for (auto _ : State)
    benchmark::DoNotOptimize(Obj.valueAndGradient(X, Grad));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Obj.stats().RowsBefore));
  State.counters["rows"] = static_cast<double>(Obj.numRows());
  State.counters["nnz"] = static_cast<double>(Obj.numNonZeros());
  State.counters["dedup_ratio"] = Obj.stats().dedupRatio();
}
BENCHMARK(BM_SolveIterationCompiled);

// The compilation pass itself (canonicalize + coalesce + CSR and blocked
// layouts); runs once per solve, so it must stay negligible next to the
// sweeps.
void BM_ConstraintCompile(benchmark::State &State) {
  BackendState &B = BackendState::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(B.System.makeCompiledObjective(0.1));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(B.System.Constraints.size()));
}
BENCHMARK(BM_ConstraintCompile);

void BM_TaintAnalysis(benchmark::State &State) {
  BackendState &B = BackendState::get();
  taint::RoleResolver Roles(&B.Data.Seed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(B.Graph);
  for (auto _ : State)
    benchmark::DoNotOptimize(Analyzer.analyze(Roles));
}
BENCHMARK(BM_TaintAnalysis);

void BM_GraphCollapse(benchmark::State &State) {
  BackendState &B = BackendState::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(B.Graph.collapseByRep());
}
BENCHMARK(BM_GraphCollapse);

void BM_MerlinBpIteration(benchmark::State &State) {
  corpus::ApiUniverse U = corpus::ApiUniverse::standard();
  spec::SeedSpec Seed = U.seedSpec();
  pysem::Project Proj = corpus::generateSingleProject(U, 5, 2, 6, "m");
  propgraph::PropagationGraph G = propgraph::buildProjectGraph(Proj);
  merlin::MerlinModel Model = merlin::buildMerlinModel(G, Seed);
  merlin::BpOptions Opts;
  Opts.MaxIterations = 1;
  merlin::LoopyBeliefPropagation Bp(Opts);
  for (auto _ : State)
    benchmark::DoNotOptimize(Bp.run(Model.Graph));
}
BENCHMARK(BM_MerlinBpIteration);

/// A solved corpus and the row index `seldond` serves it with, plus the
/// variables e2ebench's serve workload queries. The hot one is mentioned
/// by the most terms. The cold ones are the learned variables mentioned
/// at most as often as the median learned variable; the case takes the
/// median of those.
struct QueryState {
  infer::PipelineResult Result;
  constraints::RowIndex Index;
  constraints::VarId Cold = 0;
  constraints::VarId Hot = 0;

  QueryState() {
    corpus::CorpusOptions Opts;
    Opts.NumProjects = eval::envInt("SELDON_PROJECTS", 300);
    corpus::Corpus Data = corpus::generateCorpus(Opts);
    infer::PipelineOptions PO;
    PO.Solve.MaxIterations = 600;
    infer::Session S(PO);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    Result = S.solve();
    Index = constraints::buildRowIndex(Result.System);

    const constraints::VarTable &Vars = Result.System.Vars;
    std::vector<uint32_t> Mentions(Vars.numVars(), 0);
    for (const solver::LinearConstraint &C : Result.System.Constraints) {
      for (const solver::Term &T : C.Lhs)
        ++Mentions[T.Var];
      for (const solver::Term &T : C.Rhs)
        ++Mentions[T.Var];
    }
    Hot = static_cast<constraints::VarId>(
        std::max_element(Mentions.begin(), Mentions.end()) -
        Mentions.begin());
    std::vector<constraints::VarId> Learned;
    for (constraints::VarId V = 0; V < Vars.numVars(); ++V)
      if (V != Hot && Result.Learned.score(rep(V), Vars.roleOf(V)) >=
                          eval::ScoreThreshold)
        Learned.push_back(V);
    std::stable_sort(Learned.begin(), Learned.end(),
                     [&](constraints::VarId A, constraints::VarId B) {
                       return Mentions[A] < Mentions[B];
                     });
    if (!Learned.empty())
      Cold = Learned[(Learned.size() - 1) / 4];
  }

  const std::string &rep(constraints::VarId V) const {
    return Result.Reps.repString(Result.System.Vars.repOf(V));
  }

  static QueryState &get() {
    static QueryState State;
    return State;
  }
};

/// One `query` answer as `seldond` computes it: the indexed walk, then
/// the JSON.
void queryAnswer(benchmark::State &State, bool Hot) {
  QueryState &Q = QueryState::get();
  constraints::VarId V = Hot ? Q.Hot : Q.Cold;
  const std::string &Rep = Q.rep(V);
  propgraph::Role Role = Q.Result.System.Vars.roleOf(V);
  size_t Bytes = 0;
  for (auto _ : State) {
    std::string Json = service::renderQueryJson(
        service::queryRep(Q.Result.System, Q.Result.Reps, Rep, Role,
                          Q.Result.Solve.X, &Q.Index));
    Bytes = Json.size();
    benchmark::DoNotOptimize(Json.data());
    benchmark::ClobberMemory();
  }
  State.counters["rows"] = static_cast<double>(Q.Index.rowsOf(V).size());
  State.counters["answer_kb"] = static_cast<double>(Bytes) / 1024.0;
  State.counters["system_rows"] =
      static_cast<double>(Q.Result.System.Constraints.size());
}

void BM_QueryAnswerCold(benchmark::State &State) { queryAnswer(State, false); }
BENCHMARK(BM_QueryAnswerCold)->Unit(benchmark::kMicrosecond);

void BM_QueryAnswerHot(benchmark::State &State) { queryAnswer(State, true); }
BENCHMARK(BM_QueryAnswerHot)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
