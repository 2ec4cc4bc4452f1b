//===- propgraph/RepTable.cpp - Global representation table ---------------===//

#include "propgraph/RepTable.h"

using namespace seldon;
using namespace seldon::propgraph;

RepId RepTable::intern(const std::string &Rep) {
  auto It = Ids.find(Rep);
  if (It != Ids.end())
    return It->second;
  RepId Id = static_cast<RepId>(Strings.size());
  Ids.emplace(Rep, Id);
  Strings.push_back(Rep);
  Counts.push_back(0);
  return Id;
}

void RepTable::countOccurrences(const PropagationGraph &Graph) {
  // The graph's table is in first-occurrence order, so on a fresh table
  // each string gets its graph id.
  std::vector<RepId> Map;
  Map.reserve(Graph.repStrings().size());
  for (const std::string &Rep : Graph.repStrings())
    Map.push_back(intern(Rep));
  for (const Event &E : Graph.events())
    for (RepId Id : E.repIds())
      ++Counts[Map[Id]];
}

std::vector<uint8_t> RepTable::keepVerdicts(size_t Cutoff,
                                            const GlobSet &Blacklist) const {
  std::vector<uint8_t> Keep(Strings.size());
  for (RepId Id = 0; Id < Strings.size(); ++Id)
    Keep[Id] = Counts[Id] >= Cutoff && !Blacklist.matches(Strings[Id]);
  return Keep;
}

bool RepTable::lookup(const std::string &Rep, RepId &IdOut) const {
  auto It = Ids.find(Rep);
  if (It == Ids.end())
    return false;
  IdOut = It->second;
  return true;
}
