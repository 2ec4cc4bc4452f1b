//===- merlin/MerlinPipeline.h - End-to-end Merlin baseline ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the full Merlin baseline (paper §6/§7.4): optionally collapse the
/// propagation graph (§6.4), build the Fig. 6 factor graph, run loopy BP
/// (standing in for Infer.NET's EP), and read marginals back as a
/// LearnedSpec.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_MERLIN_MERLINPIPELINE_H
#define SELDON_MERLIN_MERLINPIPELINE_H

#include "merlin/LoopyBeliefPropagation.h"
#include "merlin/MerlinConstraints.h"
#include "spec/LearnedSpec.h"

namespace seldon {
namespace merlin {

/// End-to-end Merlin knobs.
struct MerlinOptions {
  /// Collapse events with equal representation first (Merlin's original
  /// graph granularity, §6.4).
  bool Collapsed = true;
  MerlinGenOptions Gen;
  BpOptions Bp;
};

/// Merlin's output and run metadata (Tab. 2 columns).
struct MerlinResult {
  spec::LearnedSpec Learned; ///< Marginal P(role) per representation.
  std::array<size_t, 3> NumCandidates{0, 0, 0}; ///< src/san/snk.
  size_t NumFactors = 0;
  double Seconds = 0.0;
  bool TimedOut = false;
  bool Converged = false;
  int Iterations = 0;
};

/// Runs Merlin over \p Graph with seeds \p Seed.
MerlinResult runMerlin(const propgraph::PropagationGraph &Graph,
                       const spec::SeedSpec &Seed,
                       const MerlinOptions &Opts = MerlinOptions());

} // namespace merlin
} // namespace seldon

#endif // SELDON_MERLIN_MERLINPIPELINE_H
