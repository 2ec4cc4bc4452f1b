//===- propgraph/RepTable.cpp - Global representation table ---------------===//

#include "propgraph/RepTable.h"

using namespace seldon;
using namespace seldon::propgraph;

RepTable::RepTable(std::shared_ptr<const PropagationGraph> Counted)
    : Graph(std::move(Counted)), Counts(Graph->repStrings().size(), 0) {
  for (const Event &E : Graph->events())
    for (RepId Id : E.repIds())
      ++Counts[Id];
}

bool RepTable::sharesTableWith(const PropagationGraph &Other) const {
  return Graph &&
         (&Other == Graph.get() || Other.repStrings() == Graph->repStrings());
}

std::vector<uint8_t> RepTable::keepVerdicts(size_t Cutoff,
                                            const GlobSet &Blacklist) const {
  std::vector<uint8_t> Keep(size());
  for (RepId Id = 0; Id < size(); ++Id)
    Keep[Id] = Counts[Id] >= Cutoff && !Blacklist.matches(repString(Id));
  return Keep;
}
