//===- active/ActiveLearner.cpp - Query→pin→re-solve loop -----------------===//

#include "active/ActiveLearner.h"

#include "support/Metrics.h"
#include "support/Timer.h"

#include <utility>

using namespace seldon;
using namespace seldon::active;

ActiveResult seldon::active::runActiveLoop(infer::Session &S,
                                           const spec::SeedSpec &Seed,
                                           Oracle &O,
                                           const ActiveOptions &Opts) {
  metrics::Registry &Reg = metrics::Registry::global();
  spec::LearnedSpec WarmCopy; // Keeps the borrowed WarmStart alive.
  infer::ScopedOptions Scope(S);
  infer::PipelineOptions &P = S.options();

  ActiveResult Result;
  S.generateConstraints(Seed);
  Result.Final = S.solve(); // Round 0: the passive solve.

  const size_t NumVars = S.system().Vars.numVars();
  Result.Candidates = NumVars - S.system().Pinned.size();
  std::vector<uint8_t> Queried(NumVars, 0);

  for (int Round = 1; Round <= Opts.MaxRounds; ++Round) {
    std::vector<Candidate> Cands =
        rankUncertain(S.system(), S.reps(), Result.Final.Solve.X,
                      Opts.Threshold, Opts.QueriesPerRound, Queried);
    if (Cands.empty()) {
      Result.Converged = true; // No unqueried candidate left to ask about.
      break;
    }

    ActiveRoundStats RS;
    RS.Round = Round;
    for (const Candidate &C : Cands) {
      Queried[C.Var] = 1;
      OracleAnswer A = O.answer(C.Rep, C.R);
      Result.Transcript.push_back({C.Rep, C.R, A});
      ++Result.TotalQueries;
      ++RS.Queried;
      if (A == OracleAnswer::Unknown)
        continue;
      ++RS.Answered;
      bool Truth = A == OracleAnswer::Yes;
      S.pinVariable(C.Rep, C.R, Truth ? 1.0 : 0.0);
      ++Result.TotalPinned;
      if (Truth)
        ++RS.PinnedTrue;
      else
        ++RS.PinnedFalse;
    }

    // Re-solve with the new pins, warm-started from the previous round.
    WarmCopy = std::move(Result.Final.Learned);
    P.WarmStart = &WarmCopy;
    Timer SolveClock;
    Result.Final = S.solve();
    Result.Rounds.push_back(RS);

    if (Reg.enabled()) {
      Reg.counter("active.queries").add(RS.Queried);
      Reg.counter("active.answers").add(RS.Answered);
      Reg.counter("active.pins_true").add(RS.PinnedTrue);
      Reg.counter("active.pins_false").add(RS.PinnedFalse);
      Reg.timer("active.round_seconds").record(SolveClock.seconds());
    }

    if (Opts.StopWhen && Opts.StopWhen(Result.Final)) {
      Result.Converged = true;
      break;
    }
  }

  if (Reg.enabled()) {
    Reg.gauge("active.rounds").set(static_cast<double>(Result.Rounds.size()));
    Reg.gauge("active.candidates")
        .set(static_cast<double>(Result.Candidates));
    Reg.gauge("active.pinned").set(static_cast<double>(Result.TotalPinned));
    Reg.gauge("active.converged").set(Result.Converged ? 1.0 : 0.0);
    Reg.gauge("active.queried_fraction")
        .set(Result.Candidates == 0
                 ? 0.0
                 : static_cast<double>(Result.TotalQueries) /
                       static_cast<double>(Result.Candidates));
  }
  return Result;
}
