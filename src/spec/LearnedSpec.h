//===- spec/LearnedSpec.h - Scored, learned specifications -------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Holds the per-(representation, role) confidence scores produced by the
/// optimizer and implements the role-selection procedure of §7.1: for an
/// event with backoff options (n_0, n_1, ...) ordered most to least
/// specific, role `r` is selected if `0.8^i * score(n_i, r) >= t` for some
/// option index i and threshold t (the paper uses t = 0.1).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SPEC_LEARNEDSPEC_H
#define SELDON_SPEC_LEARNEDSPEC_H

#include "spec/TaintSpec.h"

#include <array>
#include <initializer_list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace seldon {
namespace spec {

/// Per-role confidence scores for one representation.
struct RoleScores {
  std::array<double, propgraph::NumRoles> Scores{0.0, 0.0, 0.0};

  double &operator[](Role R) { return Scores[static_cast<size_t>(R)]; }
  double operator[](Role R) const { return Scores[static_cast<size_t>(R)]; }
};

/// The learned specification: representation -> role scores.
class LearnedSpec {
public:
  /// Decay factor applied per backoff level during selection (§7.1).
  static constexpr double BackoffDecay = 0.8;

  void setScore(const std::string &Rep, Role R, double Score);
  double score(const std::string &Rep, Role R) const;
  bool hasRep(const std::string &Rep) const { return Scores.count(Rep) != 0; }

  /// §7.1 selection over an event's backoff options (most specific first;
  /// an Event's Reps, or any range of strings, a braced list included):
  /// returns the decayed score of the first option that clears
  /// \p Threshold, or std::nullopt when no option does.
  template <class Range = std::initializer_list<std::string>>
  std::optional<double> selectRole(const Range &RepOptions, Role R,
                                   double Threshold) const {
    double Decay = 1.0;
    for (const std::string &Rep : RepOptions) {
      auto It = Scores.find(Rep);
      if (It != Scores.end()) {
        double Decayed = Decay * It->second[R];
        if (Decayed >= Threshold)
          return Decayed;
      }
      Decay *= BackoffDecay;
    }
    return std::nullopt;
  }

  /// Materializes the plain per-representation spec: every representation
  /// whose own score for a role clears \p Threshold gets that role.
  TaintSpec toSpec(double Threshold) const;

  /// Number of representations whose score for \p R clears \p Threshold.
  size_t countAbove(Role R, double Threshold) const;

  /// (representation, score) pairs for role \p R with score > \p MinScore,
  /// sorted by descending score (ties broken lexicographically).
  std::vector<std::pair<std::string, double>>
  ranked(Role R, double MinScore = 0.0) const;

  const std::unordered_map<std::string, RoleScores> &all() const {
    return Scores;
  }
  size_t size() const { return Scores.size(); }

private:
  std::unordered_map<std::string, RoleScores> Scores;
};

} // namespace spec
} // namespace seldon

#endif // SELDON_SPEC_LEARNEDSPEC_H
