//===- pointsto/AndersenSolver.cpp - Inclusion-based points-to ------------===//

#include "pointsto/AndersenSolver.h"

#include "support/Metrics.h"

#include <cassert>

using namespace seldon;
using namespace seldon::pointsto;

const std::set<ObjId> AndersenSolver::EmptySet;

VarId AndersenSolver::makeVar() {
  Vars.emplace_back();
  Dispatched.emplace_back();
  return static_cast<VarId>(Vars.size() - 1);
}

ObjId AndersenSolver::makeObj() { return NumObjs++; }

VarId AndersenSolver::fieldVar(ObjId O, const std::string &Field) {
  auto Key = std::make_pair(O, Field);
  auto It = FieldVars.find(Key);
  if (It != FieldVars.end())
    return It->second;
  VarId V = makeVar();
  FieldVars.emplace(Key, V);
  return V;
}

void AndersenSolver::addToPts(VarId V, ObjId O) {
  if (Vars[V].Pts.insert(O).second)
    Worklist.push_back(V);
}

void AndersenSolver::addAlloc(VarId V, ObjId O) {
  assert(V < Vars.size() && O < NumObjs);
  addToPts(V, O);
}

void AndersenSolver::addCopy(VarId Dst, VarId Src) {
  assert(Dst < Vars.size() && Src < Vars.size());
  if (Dst == Src || !Vars[Src].CopyTo.insert(Dst).second)
    return;
  bool Grew = false;
  for (ObjId O : Vars[Src].Pts)
    Grew |= Vars[Dst].Pts.insert(O).second;
  if (Grew)
    Worklist.push_back(Dst);
}

void AndersenSolver::addStore(VarId Base, const std::string &Field,
                              VarId Src) {
  assert(Base < Vars.size() && Src < Vars.size());
  Vars[Base].Stores.emplace_back(Field, Src);
  // Wire the constraint for objects base already points to; future objects
  // are handled when solve() dispatches them.
  std::vector<ObjId> Existing(Vars[Base].Pts.begin(), Vars[Base].Pts.end());
  for (ObjId O : Existing)
    addCopy(fieldVar(O, Field), Src);
}

void AndersenSolver::addLoad(VarId Dst, VarId Base, const std::string &Field) {
  assert(Dst < Vars.size() && Base < Vars.size());
  Vars[Base].Loads.emplace_back(Field, Dst);
  std::vector<ObjId> Existing(Vars[Base].Pts.begin(), Vars[Base].Pts.end());
  for (ObjId O : Existing)
    addCopy(Dst, fieldVar(O, Field));
}

void AndersenSolver::solve() {
  // Seed: every variable with undispatched objects or unpropagated sets.
  for (VarId V = 0; V < Vars.size(); ++V)
    Worklist.push_back(V);

  // Counted locally and published once after the fixpoint: solve() runs
  // per project under the parallel frontend, and a shared atomic on the
  // worklist hot path would serialize the workers' cache lines.
  uint64_t Pops = 0;
  while (!Worklist.empty()) {
    VarId V = Worklist.back();
    Worklist.pop_back();
    ++Pops;

    // Dispatch complex constraints for objects newly observed at V.
    std::vector<ObjId> Fresh;
    for (ObjId O : Vars[V].Pts)
      if (!Dispatched[V].count(O))
        Fresh.push_back(O);
    for (ObjId O : Fresh) {
      Dispatched[V].insert(O);
      // Copy out the constraint lists: addCopy/fieldVar may grow Vars and
      // invalidate references into it.
      std::vector<std::pair<std::string, VarId>> Stores = Vars[V].Stores;
      std::vector<std::pair<std::string, VarId>> Loads = Vars[V].Loads;
      for (const auto &[Field, Src] : Stores)
        addCopy(fieldVar(O, Field), Src);
      for (const auto &[Field, Dst] : Loads)
        addCopy(Dst, fieldVar(O, Field));
    }

    // Propagate along subset edges.
    std::vector<VarId> Targets(Vars[V].CopyTo.begin(), Vars[V].CopyTo.end());
    for (VarId T : Targets) {
      bool Grew = false;
      for (ObjId O : Vars[V].Pts)
        Grew |= Vars[T].Pts.insert(O).second;
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

const std::set<ObjId> &AndersenSolver::pointsTo(VarId V) const {
  assert(V < Vars.size());
  return Vars[V].Pts;
}

const std::set<ObjId> &
AndersenSolver::fieldPointsTo(ObjId O, const std::string &Field) const {
  auto It = FieldVars.find(std::make_pair(O, Field));
  if (It == FieldVars.end())
    return EmptySet;
  return Vars[It->second].Pts;
}

bool AndersenSolver::mayAlias(VarId A, VarId B) const {
  const std::set<ObjId> &PA = pointsTo(A);
  const std::set<ObjId> &PB = pointsTo(B);
  const std::set<ObjId> &Small = PA.size() <= PB.size() ? PA : PB;
  const std::set<ObjId> &Large = PA.size() <= PB.size() ? PB : PA;
  for (ObjId O : Small)
    if (Large.count(O))
      return true;
  return false;
}
