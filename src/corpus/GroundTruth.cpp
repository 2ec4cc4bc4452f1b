//===- corpus/GroundTruth.cpp - Oracle for generated corpora --------------===//

#include "corpus/GroundTruth.h"

#include <algorithm>

using namespace seldon;
using namespace seldon::corpus;

const std::string GroundTruth::Empty;

void GroundTruth::add(const std::string &Rep, RoleMask Mask,
                      std::string VulnClass) {
  Entry &E = Entries[Rep];
  E.Mask |= Mask;
  if (!VulnClass.empty())
    E.VulnClass = std::move(VulnClass);
  ByRoleValid = false; // New truth invalidates the memoized role lists.
}

RoleMask GroundTruth::rolesOf(const std::string &Rep) const {
  auto It = Entries.find(Rep);
  return It == Entries.end() ? 0 : It->second.Mask;
}

bool GroundTruth::isTrue(const std::string &Rep, Role R) const {
  return propgraph::maskHas(rolesOf(Rep), R);
}

const std::string &GroundTruth::vulnClassOf(const std::string &Rep) const {
  auto It = Entries.find(Rep);
  return It == Entries.end() ? Empty : It->second.VulnClass;
}

const std::vector<std::string> &GroundTruth::repsWithRole(Role R) const {
  if (!ByRoleValid) {
    for (std::vector<std::string> &List : ByRole)
      List.clear();
    for (const auto &[Rep, E] : Entries)
      for (int I = 0; I < propgraph::NumRoles; ++I)
        if (propgraph::maskHas(E.Mask, static_cast<Role>(I)))
          ByRole[I].push_back(Rep);
    // The entry map is unordered; sort so the derived lists (and anything
    // iterating them — oracles, recall sweeps) are deterministic.
    for (std::vector<std::string> &List : ByRole)
      std::sort(List.begin(), List.end());
    ByRoleValid = true;
    ++Derivations;
  }
  return ByRole[static_cast<size_t>(R)];
}
