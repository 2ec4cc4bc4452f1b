//===- pointsto/AndersenSolver.cpp - Inclusion-based points-to ------------===//

#include "pointsto/AndersenSolver.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace seldon;
using namespace seldon::pointsto;

namespace {

uint64_t pairKey(uint32_t A, uint32_t B) {
  return static_cast<uint64_t>(A) << 32 | B;
}

} // namespace

VarId AndersenSolver::makeVar() {
  Vars.emplace_back();
  return static_cast<VarId>(Vars.size() - 1);
}

ObjId AndersenSolver::makeObj() { return NumObjs++; }

VarId AndersenSolver::fieldVar(ObjId O, FieldId Field) {
  auto [Var, Inserted] = FieldVars.insert(pairKey(O, Field), 0);
  if (Inserted)
    *Var = makeVar();
  return *Var;
}

bool AndersenSolver::insertPts(VarId V, ObjId O) {
  if (!PtsMembers.insert(pairKey(V, O), true).second)
    return false;
  Vars[V].Pts.push(Lists, O);
  return true;
}

void AndersenSolver::addAlloc(VarId V, ObjId O) {
  assert(V < Vars.size() && O < NumObjs);
  if (insertPts(V, O))
    Worklist.push_back(V);
}

void AndersenSolver::addCopy(VarId Dst, VarId Src) {
  assert(Dst < Vars.size() && Src < Vars.size());
  if (Dst == Src || !CopyEdges.insert(pairKey(Src, Dst), true).second)
    return;
  Vars[Src].CopyTo.push(Lists, Dst);
  bool Grew = false;
  for (uint32_t K = 0; K < Vars[Src].Pts.Size; ++K)
    Grew |= insertPts(Dst, Vars[Src].Pts.Data[K]);
  if (Grew)
    Worklist.push_back(Dst);
}

void AndersenSolver::addStore(VarId Base, FieldId Field, VarId Src) {
  assert(Base < Vars.size() && Src < Vars.size());
  Vars[Base].Stores.push(Lists, {Field, Src});
  // Wire the constraint for objects base already points to; future objects
  // are handled when solve() dispatches them.
  for (uint32_t K = 0; K < Vars[Base].Pts.Size; ++K)
    addCopy(fieldVar(Vars[Base].Pts.Data[K], Field), Src);
}

void AndersenSolver::addLoad(VarId Dst, VarId Base, FieldId Field) {
  assert(Dst < Vars.size() && Base < Vars.size());
  Vars[Base].Loads.push(Lists, {Field, Dst});
  for (uint32_t K = 0; K < Vars[Base].Pts.Size; ++K)
    addCopy(Dst, fieldVar(Vars[Base].Pts.Data[K], Field));
}

void AndersenSolver::solve() {
  // Seed: every variable with undispatched objects.
  for (VarId V = 0; V < Vars.size(); ++V)
    Worklist.push_back(V);

  // Counted locally and published once after the fixpoint: solve() runs
  // per module under the parallel frontend, and a shared atomic on the
  // worklist hot path would serialize the workers' cache lines.
  uint64_t Pops = 0;
  while (!Worklist.empty()) {
    const VarId V = Worklist.back();
    Worklist.pop_back();
    ++Pops;

    // The objects V gained since it was last processed. Vars and V's own
    // lists may move below (fieldVar makes variables, and a load may feed
    // V itself), so everything is re-read by index.
    const uint32_t From = Vars[V].Done, To = Vars[V].Pts.Size;
    if (From == To)
      continue;
    Vars[V].Done = To;
    for (uint32_t K = From; K < To; ++K) {
      const ObjId O = Vars[V].Pts.Data[K];
      for (uint32_t S = 0; S < Vars[V].Stores.Size; ++S) {
        const FieldEdge E = Vars[V].Stores.Data[S];
        addCopy(fieldVar(O, E.Field), E.Var);
      }
      for (uint32_t L = 0; L < Vars[V].Loads.Size; ++L) {
        const FieldEdge E = Vars[V].Loads.Data[L];
        addCopy(E.Var, fieldVar(O, E.Field));
      }
    }

    // Propagate the gain along subset edges.
    for (uint32_t C = 0; C < Vars[V].CopyTo.Size; ++C) {
      const VarId T = Vars[V].CopyTo.Data[C];
      bool Grew = false;
      for (uint32_t K = From; K < To; ++K)
        Grew |= insertPts(T, Vars[V].Pts.Data[K]);
      if (Grew)
        Worklist.push_back(T);
    }
  }

  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("pointsto.solves").add();
    Reg.counter("pointsto.worklist_pops").add(Pops);
    Reg.counter("pointsto.vars").add(Vars.size());
  }
}

std::span<const ObjId> AndersenSolver::pointsTo(VarId V) const {
  assert(V < Vars.size());
  return Vars[V].Pts.view();
}

std::span<const ObjId> AndersenSolver::fieldPointsTo(ObjId O,
                                                     FieldId Field) const {
  const VarId *Var = FieldVars.find(pairKey(O, Field));
  return Var ? pointsTo(*Var) : std::span<const ObjId>();
}

bool AndersenSolver::mayAlias(VarId A, VarId B) const {
  if (pointsTo(A).size() > pointsTo(B).size())
    std::swap(A, B);
  for (ObjId O : pointsTo(A))
    if (PtsMembers.find(pairKey(B, O)))
      return true;
  return false;
}

void AndersenSolver::clear() {
  Vars.clear();
  NumObjs = 0;
  Lists.reset();
  PtsMembers.clear();
  CopyEdges.clear();
  FieldVars.clear();
  Worklist.clear();
}
