//===- active/ActiveLearner.h - Query→pin→re-solve loop ----------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The active-learning loop over an infer::Session:
///
///   round 0: generateConstraints(seed) + solve()      (the passive solve)
///   repeat:
///     1. rank the unpinned, unqueried score variables by uncertainty
///        (distance to the report threshold, ties by rep name)
///     2. query the oracle about the top-K; pin every answered variable
///        to 1 (yes) or 0 (no) — the same §4.1 pin mechanism seeds use
///     3. re-solve, warm-started from the previous round's learned spec
///   until the round budget runs out, no unqueried candidate is left, or
///   the caller's StopWhen returns true.
///
/// Determinism contract: for a fixed oracle, the query transcript and the
/// final learned spec are byte-identical at any Jobs value and on every
/// kernel tier — every solve is byte-identical, so the uncertainty ranking
/// (and hence the pins) never diverges.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_ACTIVE_ACTIVELEARNER_H
#define SELDON_ACTIVE_ACTIVELEARNER_H

#include "active/Oracle.h"
#include "active/Uncertainty.h"
#include "infer/Pipeline.h"

#include <functional>
#include <vector>

namespace seldon {
namespace active {

/// Budget and convergence knobs of one active-learning run.
struct ActiveOptions {
  /// Query rounds after the passive round-0 solve.
  int MaxRounds = 10;
  /// Oracle queries proposed per round.
  size_t QueriesPerRound = 8;
  /// The report threshold the uncertainty scorer centers on.
  double Threshold = 0.1;
  /// External stop, checked after each round's solve (e.g. "target F1
  /// reached" in the bench). Returning true ends the loop.
  std::function<bool(const infer::PipelineResult &)> StopWhen;
};

/// Per-round accounting.
struct ActiveRoundStats {
  int Round = 0;
  size_t Queried = 0;
  size_t Answered = 0;
  size_t PinnedTrue = 0;
  size_t PinnedFalse = 0;
};

/// Everything an active run produced.
struct ActiveResult {
  /// The last round's full pipeline result (the learned spec to report).
  infer::PipelineResult Final;
  std::vector<ActiveRoundStats> Rounds;
  /// Every query in the order it was asked (replayable via
  /// writeOracleFile).
  std::vector<OracleExchange> Transcript;
  /// Unpinned candidate variables before the first query round — the
  /// "pin everything" labeling cost the loop competes against.
  size_t Candidates = 0;
  size_t TotalQueries = 0;
  size_t TotalPinned = 0;
  /// True when running out of candidates or StopWhen ended the loop
  /// rather than the round budget.
  bool Converged = false;
};

/// Runs the loop on \p S, which must have its projects added (or a graph
/// adopted); the function drives generateConstraints(\p Seed) and every
/// solve itself. The session's options() are restored when it returns or
/// throws (infer::ScopedOptions), so the per-round WarmStart never
/// outlives the loop. Emits `active.*` metrics when the global registry
/// is enabled.
ActiveResult runActiveLoop(infer::Session &S, const spec::SeedSpec &Seed,
                           Oracle &O, const ActiveOptions &Opts);

} // namespace active
} // namespace seldon

#endif // SELDON_ACTIVE_ACTIVELEARNER_H
