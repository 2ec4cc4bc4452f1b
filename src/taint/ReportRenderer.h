//===- taint/ReportRenderer.h - Violation ranking & formatting ---*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post-processing of taint reports, mirroring the paper's triage workflow
/// (§7.3/Q7: "we inspected several reports with highly scored sources and
/// sinks"):
///
///  * confidence scoring: a report's confidence is the weaker of its two
///    endpoint confidences (seeded endpoints count as 1.0);
///  * ranking: reports sorted by descending confidence;
///  * deduplication by (source representation, sink representation) pair —
///    thousands of raw reports collapse to one exemplar per API pair;
///  * human-readable rendering with the witness path.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_TAINT_REPORTRENDERER_H
#define SELDON_TAINT_REPORTRENDERER_H

#include "taint/TaintAnalyzer.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace seldon {
namespace taint {

/// Confidence of one endpoint event under seed + learned specs: 1.0 for a
/// seed match, the decayed learned score otherwise, 0.0 if neither.
double endpointConfidence(const Event &E, Role R, const spec::TaintSpec *Seed,
                          const spec::LearnedSpec *Learned,
                          double Threshold = 0.1);

/// Report confidence: min(source confidence, sink confidence).
double violationConfidence(const PropagationGraph &Graph,
                           const Violation &V, const spec::TaintSpec *Seed,
                           const spec::LearnedSpec *Learned,
                           double Threshold = 0.1);

/// Sorts \p Reports by descending confidence (stable; ties keep discovery
/// order). Returns confidences parallel to the sorted vector.
std::vector<double> rankViolations(const PropagationGraph &Graph,
                                   std::vector<Violation> &Reports,
                                   const spec::TaintSpec *Seed,
                                   const spec::LearnedSpec *Learned,
                                   double Threshold = 0.1);

/// Keeps one exemplar (the first) per (source primary rep, sink primary
/// rep) pair, preserving order.
std::vector<Violation>
dedupByRepPair(const PropagationGraph &Graph,
               const std::vector<Violation> &Reports);

/// The source text of line \p Line of file \p FileIdx (an index into
/// PropagationGraph::files()), or empty when there is none to show.
using LineQuoter = std::function<std::string(uint32_t FileIdx, uint32_t Line)>;

/// Multi-line human-readable rendering of one report. With \p Quote, each
/// path step is followed by its quoted source line, when it has one.
std::string formatViolation(const PropagationGraph &Graph, const Violation &V,
                            const LineQuoter &Quote = nullptr);

} // namespace taint
} // namespace seldon

#endif // SELDON_TAINT_REPORTRENDERER_H
