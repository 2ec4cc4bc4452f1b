//===- active/Uncertainty.cpp - Uncertainty-ranked candidates -------------===//

#include "active/Uncertainty.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

using namespace seldon;
using namespace seldon::active;
using namespace seldon::constraints;

std::vector<Candidate>
seldon::active::rankUncertain(const ConstraintSystem &Sys,
                              const propgraph::RepTable &Reps,
                              const std::vector<double> &X, double Threshold,
                              size_t K, const std::vector<uint8_t> &Exclude) {
  std::unordered_set<VarId> Pinned;
  for (const auto &[Var, Value] : Sys.Pinned)
    Pinned.insert(Var);

  std::vector<Candidate> All;
  const size_t NumVars = Sys.Vars.numVars();
  for (VarId V = 0; V < NumVars; ++V) {
    if (Pinned.count(V))
      continue;
    if (V < Exclude.size() && Exclude[V])
      continue;
    double Score = V < X.size() ? X[V] : 0.0;
    double U = std::fabs(Score - Threshold);
    Candidate C;
    C.Var = V;
    C.Rep = Reps.repString(Sys.Vars.repOf(V));
    C.R = Sys.Vars.roleOf(V);
    C.Score = Score;
    C.Uncertainty = U;
    All.push_back(std::move(C));
  }

  // Full sort keeps the top-K selection independent of variable order:
  // ties on uncertainty break by (rep, role), never by VarId.
  std::sort(All.begin(), All.end(), [](const Candidate &A,
                                       const Candidate &B) {
    if (A.Uncertainty != B.Uncertainty)
      return A.Uncertainty < B.Uncertainty;
    if (A.Rep != B.Rep)
      return A.Rep < B.Rep;
    return A.R < B.R;
  });
  if (All.size() > K)
    All.resize(K);
  return All;
}
