//===- taint/ReportRenderer.cpp - Violation ranking & formatting ----------===//

#include "taint/ReportRenderer.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

using namespace seldon;
using namespace seldon::taint;
using namespace seldon::propgraph;

double seldon::taint::endpointConfidence(const Event &E, Role R,
                                         const spec::TaintSpec *Seed,
                                         const spec::LearnedSpec *Learned,
                                         double Threshold) {
  if (Seed)
    for (const std::string &Rep : E.Reps)
      if (Seed->has(Rep, R))
        return 1.0;
  if (Learned)
    if (std::optional<double> Score = Learned->selectRole(E.Reps, R,
                                                          Threshold))
      return *Score;
  return 0.0;
}

double seldon::taint::violationConfidence(const PropagationGraph &Graph,
                                          const Violation &V,
                                          const spec::TaintSpec *Seed,
                                          const spec::LearnedSpec *Learned,
                                          double Threshold) {
  double SrcConf = endpointConfidence(Graph.event(V.Source), Role::Source,
                                      Seed, Learned, Threshold);
  double SnkConf = endpointConfidence(Graph.event(V.Sink), Role::Sink, Seed,
                                      Learned, Threshold);
  return std::min(SrcConf, SnkConf);
}

std::vector<double> seldon::taint::rankViolations(
    const PropagationGraph &Graph, std::vector<Violation> &Reports,
    const spec::TaintSpec *Seed, const spec::LearnedSpec *Learned,
    double Threshold) {
  std::vector<double> Confidence(Reports.size());
  for (size_t I = 0; I < Reports.size(); ++I)
    Confidence[I] =
        violationConfidence(Graph, Reports[I], Seed, Learned, Threshold);

  std::vector<size_t> Order(Reports.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Confidence[A] > Confidence[B];
  });

  std::vector<Violation> Sorted;
  std::vector<double> SortedConfidence;
  Sorted.reserve(Reports.size());
  SortedConfidence.reserve(Reports.size());
  for (size_t Idx : Order) {
    Sorted.push_back(std::move(Reports[Idx]));
    SortedConfidence.push_back(Confidence[Idx]);
  }
  Reports = std::move(Sorted);
  return SortedConfidence;
}

std::vector<Violation>
seldon::taint::dedupByRepPair(const PropagationGraph &Graph,
                              const std::vector<Violation> &Reports) {
  std::vector<Violation> Out;
  std::unordered_set<std::string> Seen;
  for (const Violation &V : Reports) {
    std::string Key = Graph.event(V.Source).primaryRep() + "\x1f" +
                      Graph.event(V.Sink).primaryRep();
    if (Seen.insert(std::move(Key)).second)
      Out.push_back(V);
  }
  return Out;
}

std::string seldon::taint::formatViolation(const PropagationGraph &Graph,
                                           const Violation &V,
                                           const LineQuoter &Quote) {
  const Event &Src = Graph.event(V.Source);
  const Event &Snk = Graph.event(V.Sink);
  std::string Out = formatString(
      "unsanitized flow in %s:\n  source %s (line %u)\n  sink   %s (line "
      "%u)\n  path:\n",
      Graph.files()[V.FileIdx].c_str(), Src.primaryRep().c_str(),
      Src.Loc.Line, Snk.primaryRep().c_str(), Snk.Loc.Line);
  for (EventId Id : V.Path) {
    const Event &E = Graph.event(Id);
    Out += formatString("    %s (line %u)\n", E.primaryRep().c_str(),
                        E.Loc.Line);
    std::string Quoted = Quote ? Quote(E.FileIdx, E.Loc.Line) : "";
    if (!Quoted.empty())
      Out += formatString("        | %s\n", Quoted.c_str());
  }
  return Out;
}
