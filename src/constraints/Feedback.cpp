//===- constraints/Feedback.cpp - Feedback-weighted inference -------------===//

#include "constraints/Feedback.h"

#include <algorithm>
#include <array>
#include <span>
#include <unordered_map>

using namespace seldon;
using namespace seldon::constraints;
using namespace seldon::propgraph;

std::vector<FeedbackEntry> FeedbackSet::entries() const {
  std::vector<FeedbackEntry> Out;
  Out.reserve(Verdicts.size());
  for (const auto &[Key, Accepted] : Verdicts)
    Out.push_back({Key.first, static_cast<Role>(Key.second), Accepted});
  return Out; // std::map iterates in (rep, role) order already.
}

namespace {

/// One evidence row: w*(1-x) pulling toward 1 for an accept, w*x pulling
/// toward 0 for a reject. The constant is derived from the rounded float
/// coefficient so an accepted variable at exactly 1 contributes zero.
void appendEvidenceRow(ConstraintSystem &Sys, VarId V, double W,
                       bool Accepted) {
  solver::Term T;
  T.Var = V;
  T.Coef = static_cast<float>(W);
  if (Accepted)
    Sys.Constraints.add({}, {T}, -static_cast<double>(T.Coef));
  else
    Sys.Constraints.add({T}, {}, 0.0);
}

} // namespace

FeedbackStats
seldon::constraints::applyFeedback(ConstraintSystem &Sys,
                                   const propgraph::RepTable &Reps,
                                   const FeedbackSet &Set,
                                   const FeedbackOptions &Opts) {
  FeedbackStats Stats;

  struct Direct {
    RepId Rep;
    VarId Var;
    Role R = Role::Source;
    bool Accepted = false;
  };
  std::vector<Direct> Directs;
  for (const FeedbackEntry &E : Set.entries()) {
    RepId Id;
    VarId V;
    if (!Reps.lookup(E.Rep, Id) || !Sys.Vars.lookup(Id, E.R, V)) {
      ++Stats.Unmatched;
      continue;
    }
    ++Stats.Matched;
    Directs.push_back({Id, V, E.R, E.Accepted});
  }

  // Direct rows first, already in (rep, role) order via entries().
  for (const Direct &D : Directs) {
    appendEvidenceRow(Sys, D.Var,
                      D.Accepted ? Opts.AcceptWeight : Opts.RejectWeight,
                      D.Accepted);
    ++Stats.EvidenceRows;
  }
  if (Opts.SimilarityDecay <= 0.0 || Directs.empty())
    return Stats;

  // Similarity propagation: a verdict reaches exactly the representations
  // that share an event's surviving backoff set with the judged one.
  // Targets keep the strongest decayed accept and/or reject evidence over
  // all shared events; max() is order-independent, so the result does not
  // depend on event order.
  std::array<std::unordered_map<RepId, double>, NumRoles> DirectAccept;
  std::array<std::unordered_map<RepId, double>, NumRoles> DirectReject;
  std::array<std::unordered_map<RepId, char>, NumRoles> HasDirect;
  for (const Direct &D : Directs) {
    size_t R = static_cast<size_t>(D.R);
    HasDirect[R][D.Rep] = 1;
    auto &Map = D.Accepted ? DirectAccept[R] : DirectReject[R];
    double W = D.Accepted ? Opts.AcceptWeight : Opts.RejectWeight;
    double &Slot = Map[D.Rep];
    Slot = std::max(Slot, W);
  }

  std::array<std::unordered_map<RepId, double>, NumRoles> PropAccept;
  std::array<std::unordered_map<RepId, double>, NumRoles> PropReject;
  for (std::span<const RepId> Options : Sys.EventReps) {
    if (Options.size() < 2)
      continue;
    for (size_t R = 0; R < NumRoles; ++R) {
      double MaxAcc = 0.0, MaxRej = 0.0;
      for (RepId Id : Options) {
        auto AccIt = DirectAccept[R].find(Id);
        if (AccIt != DirectAccept[R].end())
          MaxAcc = std::max(MaxAcc, AccIt->second);
        auto RejIt = DirectReject[R].find(Id);
        if (RejIt != DirectReject[R].end())
          MaxRej = std::max(MaxRej, RejIt->second);
      }
      if (MaxAcc <= 0.0 && MaxRej <= 0.0)
        continue;
      for (RepId Id : Options) {
        if (HasDirect[R].count(Id))
          continue; // A direct verdict overrides propagation.
        if (MaxAcc > 0.0) {
          double &Slot = PropAccept[R][Id];
          Slot = std::max(Slot, MaxAcc * Opts.SimilarityDecay);
        }
        if (MaxRej > 0.0) {
          double &Slot = PropReject[R][Id];
          Slot = std::max(Slot, MaxRej * Opts.SimilarityDecay);
        }
      }
    }
  }

  // Propagated rows in (rep, role, accept-before-reject) order.
  struct Prop {
    const std::string *Rep;
    VarId Var;
    Role R;
    double W;
    bool Accepted;
  };
  std::vector<Prop> Props;
  for (size_t R = 0; R < NumRoles; ++R) {
    auto Collect = [&](const std::unordered_map<RepId, double> &Map,
                       bool Accepted) {
      for (const auto &[Id, W] : Map) {
        VarId V;
        if (!Sys.Vars.lookup(Id, static_cast<Role>(R), V))
          continue;
        Props.push_back({&Reps.repString(Id), V, static_cast<Role>(R), W,
                         Accepted});
      }
    };
    Collect(PropAccept[R], /*Accepted=*/true);
    Collect(PropReject[R], /*Accepted=*/false);
  }
  std::sort(Props.begin(), Props.end(), [](const Prop &A, const Prop &B) {
    if (*A.Rep != *B.Rep)
      return *A.Rep < *B.Rep;
    if (A.R != B.R)
      return A.R < B.R;
    return A.Accepted && !B.Accepted;
  });
  for (const Prop &P : Props) {
    appendEvidenceRow(Sys, P.Var, P.W, P.Accepted);
    ++Stats.PropagatedRows;
  }
  return Stats;
}
