//===- propgraph/RepTable.h - Global representation table --------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns event representations across the whole corpus, counts their
/// occurrences, and decides which representations may serve in an event's
/// backoff set Reps(v) (paper §4.3): options that occur fewer than the
/// cutoff number of times (5 in the paper) are dropped; an event whose
/// every option is dropped is ignored entirely.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PROPGRAPH_REPTABLE_H
#define SELDON_PROPGRAPH_REPTABLE_H

#include "propgraph/PropagationGraph.h"
#include "support/Glob.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace seldon {
namespace propgraph {

/// Corpus-wide interning and frequency table of representations.
class RepTable {
public:
  /// Interns \p Rep (without counting an occurrence).
  RepId intern(const std::string &Rep);

  /// Counts every representation option of every event in \p Graph,
  /// interning the graph's distinct strings first, in its id order, so on
  /// a fresh table every id equals the graph's. Call once per (global)
  /// graph.
  void countOccurrences(const PropagationGraph &Graph);

  /// Occurrences of \p Id recorded by countOccurrences.
  size_t occurrences(RepId Id) const { return Counts[Id]; }

  /// One keep verdict per representation, indexed by RepId: 1 when it
  /// occurs at least \p Cutoff times (§4.3) and matches no pattern of
  /// \p Blacklist (§7.2). An event's backoff set Reps(v) is its options
  /// with a verdict of 1, most to least specific; an event with none is
  /// ignored.
  std::vector<uint8_t> keepVerdicts(size_t Cutoff,
                                    const GlobSet &Blacklist) const;

  const std::string &repString(RepId Id) const { return Strings[Id]; }
  size_t size() const { return Strings.size(); }

  /// Looks up an already-interned representation; returns true and sets
  /// \p IdOut on success.
  bool lookup(const std::string &Rep, RepId &IdOut) const;

private:
  std::unordered_map<std::string, RepId> Ids;
  std::vector<std::string> Strings;
  std::vector<size_t> Counts;
};

} // namespace propgraph
} // namespace seldon

#endif // SELDON_PROPGRAPH_REPTABLE_H
