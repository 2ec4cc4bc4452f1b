//===- merlin/MerlinPipeline.cpp - End-to-end Merlin baseline -------------===//

#include "merlin/MerlinPipeline.h"

#include "support/Metrics.h"
#include "support/Timer.h"

using namespace seldon;
using namespace seldon::merlin;
using namespace seldon::propgraph;

MerlinResult seldon::merlin::runMerlin(const PropagationGraph &Graph,
                                       const spec::SeedSpec &Seed,
                                       const MerlinOptions &Opts) {
  Timer Clock;
  MerlinResult Result;

  const PropagationGraph *Active = &Graph;
  PropagationGraph Collapsed;
  if (Opts.Collapsed) {
    Collapsed = Graph.collapseByRep();
    Active = &Collapsed;
  }

  MerlinModel Model = buildMerlinModel(*Active, Seed, Opts.Gen);
  Result.NumCandidates = Model.NumCandidates;
  Result.NumFactors = Model.Graph.numFactors();

  InferenceResult Inference = LoopyBeliefPropagation(Opts.Bp).run(Model.Graph);
  Result.TimedOut = Inference.TimedOut;
  Result.Converged = Inference.Converged;
  Result.Iterations = Inference.Iterations;

  for (const auto &[Rep, Slots] : Model.VarOf)
    for (Role R : {Role::Source, Role::Sanitizer, Role::Sink}) {
      int64_t V = Slots[static_cast<size_t>(R)];
      if (V >= 0)
        Result.Learned.setScore(Rep, R, Inference.Marginals[V]);
    }
  Result.Seconds = Clock.seconds();

  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("merlin.runs").add();
    Reg.timer("merlin.solve_seconds").record(Result.Seconds);
    Reg.gauge("merlin.factors").set(static_cast<double>(Result.NumFactors));
    Reg.gauge("merlin.candidates")
        .set(static_cast<double>(Result.NumCandidates[0] +
                                 Result.NumCandidates[1] +
                                 Result.NumCandidates[2]));
    Reg.gauge("merlin.iterations")
        .set(static_cast<double>(Result.Iterations));
    Reg.gauge("merlin.converged").set(Result.Converged ? 1.0 : 0.0);
    Reg.gauge("merlin.timed_out").set(Result.TimedOut ? 1.0 : 0.0);
  }
  return Result;
}
