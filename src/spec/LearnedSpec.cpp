//===- spec/LearnedSpec.cpp - Scored, learned specifications --------------===//

#include "spec/LearnedSpec.h"

#include <algorithm>
#include <cmath>

using namespace seldon;
using namespace seldon::spec;
using namespace seldon::propgraph;

void LearnedSpec::setScore(const std::string &Rep, Role R, double Score) {
  Scores[Rep][R] = Score;
}

double LearnedSpec::score(const std::string &Rep, Role R) const {
  auto It = Scores.find(Rep);
  return It == Scores.end() ? 0.0 : It->second[R];
}

TaintSpec LearnedSpec::toSpec(double Threshold) const {
  TaintSpec Out;
  for (const auto &[Rep, RS] : Scores)
    for (Role R : {Role::Source, Role::Sanitizer, Role::Sink})
      if (RS[R] >= Threshold)
        Out.add(Rep, R);
  return Out;
}

size_t LearnedSpec::countAbove(Role R, double Threshold) const {
  size_t N = 0;
  for (const auto &[Rep, RS] : Scores)
    N += RS[R] >= Threshold;
  return N;
}

std::vector<std::pair<std::string, double>>
LearnedSpec::ranked(Role R, double MinScore) const {
  std::vector<std::pair<std::string, double>> Out;
  for (const auto &[Rep, RS] : Scores)
    if (RS[R] > MinScore)
      Out.emplace_back(Rep, RS[R]);
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first < B.first;
  });
  return Out;
}
