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
  for (const Event &E : Graph.events())
    for (const std::string &Rep : E.Reps)
      ++Counts[intern(Rep)];
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
