//===- constraints/Feedback.cpp - Feedback-weighted inference -------------===//

#include "constraints/Feedback.h"

#include <algorithm>
#include <array>
#include <cassert>

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
  // depend on event order. Weights are per role and representation,
  // indexed by RepId: 0 is no direct verdict, -1 no propagated evidence.
  using Weights = std::array<std::vector<double>, NumRoles>;
  Weights DirectAccept, DirectReject, PropAccept, PropReject;
  for (Weights *W : {&DirectAccept, &DirectReject})
    W->fill(std::vector<double>(Reps.size(), 0.0));
  for (Weights *W : {&PropAccept, &PropReject})
    W->fill(std::vector<double>(Reps.size(), -1.0));
  std::array<std::vector<uint8_t>, NumRoles> HasDirect;
  HasDirect.fill(std::vector<uint8_t>(Reps.size(), 0));
  for (const Direct &D : Directs) {
    size_t R = static_cast<size_t>(D.R);
    HasDirect[R][D.Rep] = 1;
    double &Slot = (D.Accepted ? DirectAccept : DirectReject)[R][D.Rep];
    Slot = std::max(Slot, D.Accepted ? Opts.AcceptWeight : Opts.RejectWeight);
  }

  assert(Sys.Kept.size() == Reps.size() && "system generated against Reps");
  std::vector<RepId> Options; // The event's surviving backoff set.
  for (const Event &E : Reps.graph().events()) {
    Options.clear();
    for (RepId Id : E.repIds())
      if (Sys.Kept[Id])
        Options.push_back(Id);
    if (Options.size() < 2)
      continue;
    for (size_t R = 0; R < NumRoles; ++R) {
      double MaxAcc = 0.0, MaxRej = 0.0;
      for (RepId Id : Options) {
        MaxAcc = std::max(MaxAcc, DirectAccept[R][Id]);
        MaxRej = std::max(MaxRej, DirectReject[R][Id]);
      }
      if (MaxAcc <= 0.0 && MaxRej <= 0.0)
        continue;
      for (RepId Id : Options) {
        if (HasDirect[R][Id])
          continue; // A direct verdict overrides propagation.
        if (MaxAcc > 0.0)
          PropAccept[R][Id] =
              std::max(PropAccept[R][Id], MaxAcc * Opts.SimilarityDecay);
        if (MaxRej > 0.0)
          PropReject[R][Id] =
              std::max(PropReject[R][Id], MaxRej * Opts.SimilarityDecay);
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
  for (size_t R = 0; R < NumRoles; ++R)
    for (RepId Id = 0; Id < Reps.size(); ++Id)
      for (bool Accepted : {true, false}) {
        const double W = (Accepted ? PropAccept : PropReject)[R][Id];
        VarId V;
        if (W >= 0.0 && Sys.Vars.lookup(Id, static_cast<Role>(R), V))
          Props.push_back({&Reps.repString(Id), V, static_cast<Role>(R), W,
                           Accepted});
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
