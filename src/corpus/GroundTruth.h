//===- corpus/GroundTruth.h - Oracle for generated corpora -------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ground-truth oracle of the synthetic corpus: which representations
/// truly are sources, sanitizers, and sinks. The paper estimates precision
/// by manually inspecting 50 samples per role (§7.3); our generator knows
/// the truth exactly, so the evaluation can compute both the sampled and
/// the exact precision.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CORPUS_GROUNDTRUTH_H
#define SELDON_CORPUS_GROUNDTRUTH_H

#include "propgraph/Event.h"

#include <array>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

namespace seldon {
namespace corpus {

using propgraph::Role;
using propgraph::RoleMask;

/// Representation -> true roles (and vulnerability class).
class GroundTruth {
public:
  /// Registers \p Rep as truly holding the roles of \p Mask.
  void add(const std::string &Rep, RoleMask Mask,
           std::string VulnClass = std::string());

  /// True roles of \p Rep (0 when unknown/no role).
  RoleMask rolesOf(const std::string &Rep) const;

  /// True if \p Rep truly holds \p R.
  bool isTrue(const std::string &Rep, Role R) const;

  /// True if any of \p RepOptions truly holds \p R (events carry several
  /// backoff representations): an Event's Reps, or any range of strings, a
  /// braced list included.
  template <class Range = std::initializer_list<std::string>>
  bool anyTrue(const Range &RepOptions, Role R) const {
    for (const std::string &Rep : RepOptions)
      if (isTrue(Rep, R))
        return true;
    return false;
  }

  /// Vulnerability class of \p Rep ("xss", "sqli", ...; empty if none).
  const std::string &vulnClassOf(const std::string &Rep) const;

  /// Every representation truly holding \p R, sorted lexicographically.
  /// Derived lazily — one pass over the entries fills all three role
  /// lists — and memoized until the next add(), so oracle/recall loops
  /// stop paying O(corpus) per query. Not thread-safe with concurrent
  /// first calls (fill the memo once before fanning out readers).
  const std::vector<std::string> &repsWithRole(Role R) const;

  /// Count of representations truly holding \p R (same memo).
  size_t countWithRole(Role R) const { return repsWithRole(R).size(); }

  /// How many times the role lists were derived from scratch — the
  /// regression hook: any number of repsWithRole()/countWithRole() calls
  /// on an unmodified corpus must keep this at one.
  size_t derivations() const { return Derivations; }

  size_t size() const { return Entries.size(); }

private:
  struct Entry {
    RoleMask Mask = 0;
    std::string VulnClass;
  };
  std::unordered_map<std::string, Entry> Entries;
  mutable std::array<std::vector<std::string>, propgraph::NumRoles> ByRole;
  mutable bool ByRoleValid = false;
  mutable size_t Derivations = 0;
  static const std::string Empty;
};

} // namespace corpus
} // namespace seldon

#endif // SELDON_CORPUS_GROUNDTRUTH_H
