//===- propgraph/RepTable.h - Global representation table --------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts the occurrences of every representation of the corpus graph, and
/// decides which representations may serve in an event's backoff set
/// Reps(v) (paper §4.3): options that occur fewer than the cutoff number of
/// times (5 in the paper) are dropped; an event whose every option is
/// dropped is ignored entirely.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PROPGRAPH_REPTABLE_H
#define SELDON_PROPGRAPH_REPTABLE_H

#include "propgraph/PropagationGraph.h"
#include "support/Glob.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace propgraph {

/// Corpus-wide frequency table of representations. It holds no string: it
/// shares the graph it counted, and its ids are that graph's table ids. A
/// default-constructed table is empty.
class RepTable {
public:
  RepTable() = default;
  /// Counts every representation option of every event of \p Graph,
  /// which the table then shares.
  explicit RepTable(std::shared_ptr<const PropagationGraph> Graph);

  /// The counted graph. The table must not be empty.
  const PropagationGraph &graph() const { return *Graph; }

  /// True when \p Other's option ids are this table's: \p Other is the
  /// counted graph, or has an equal string table (as its collapsed graph
  /// does). Never true of an empty table.
  bool sharesTableWith(const PropagationGraph &Other) const;

  /// Occurrences of \p Id over the counted graph's events.
  size_t occurrences(RepId Id) const { return Counts[Id]; }

  /// One keep verdict per representation, indexed by RepId: 1 when it
  /// occurs at least \p Cutoff times (§4.3) and matches no pattern of
  /// \p Blacklist (§7.2). An event's backoff set Reps(v) is its options
  /// with a verdict of 1, most to least specific; an event with none is
  /// ignored.
  std::vector<uint8_t> keepVerdicts(size_t Cutoff,
                                    const GlobSet &Blacklist) const;

  const std::string &repString(RepId Id) const {
    return Graph->repStrings()[Id];
  }
  size_t size() const { return Counts.size(); }

  /// Looks up a representation; returns true and sets \p IdOut on success.
  bool lookup(std::string_view Rep, RepId &IdOut) const {
    return Graph && Graph->lookup(Rep, IdOut);
  }

private:
  std::shared_ptr<const PropagationGraph> Graph;
  std::vector<size_t> Counts;
};

} // namespace propgraph
} // namespace seldon

#endif // SELDON_PROPGRAPH_REPTABLE_H
