//===- pointsto/AndersenSolver.h - Inclusion-based points-to -----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Andersen-style (inclusion-based) points-to solver (paper §5.2,
/// following Smaragdakis & Balatsouras). Constraint kinds:
///
///   alloc  v ⊇ {o}         — v may point to abstract object o
///   copy   d ⊇ s           — everything s points to, d may point to
///   store  base.f ⊇ s      — for every o ∈ pts(base): fld(o,f) ⊇ pts(s)
///   load   d ⊇ base.f      — for every o ∈ pts(base): d ⊇ fld(o,f)
///
/// The solver is field-sensitive: each (object, field) pair owns a separate
/// points-to set, materialized lazily as an auxiliary variable node. The
/// classic worklist algorithm runs to a fixed point, propagating only what
/// a variable gained since it was last processed.
///
/// Variables, objects and fields are dense ids, so the solver holds no
/// names: a caller numbers its fields. A variable's points-to set, copy
/// targets and pending field constraints are lists in one arena,
/// membership is one flat hash set, and clear() keeps the arena's blocks
/// and every array's capacity, so a solver reused across modules stops
/// allocating once it has solved the largest.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_POINTSTO_ANDERSENSOLVER_H
#define SELDON_POINTSTO_ANDERSENSOLVER_H

#include "support/Arena.h"
#include "support/FlatMap.h"

#include <cstdint>
#include <span>
#include <vector>

namespace seldon {
namespace pointsto {

using VarId = uint32_t;
using ObjId = uint32_t;
using FieldId = uint32_t;

/// Inclusion-based points-to constraint solver.
class AndersenSolver {
public:
  /// Creates a fresh variable node.
  VarId makeVar();

  /// Creates a fresh abstract object (allocation site).
  ObjId makeObj();

  /// Constraint: \p V may point to \p O.
  void addAlloc(VarId V, ObjId O);

  /// Constraint: pts(\p Dst) ⊇ pts(\p Src).
  void addCopy(VarId Dst, VarId Src);

  /// Constraint: for every o ∈ pts(\p Base), fld(o, \p Field) ⊇ pts(\p Src).
  void addStore(VarId Base, FieldId Field, VarId Src);

  /// Constraint: for every o ∈ pts(\p Base), pts(\p Dst) ⊇ fld(o, \p Field).
  void addLoad(VarId Dst, VarId Base, FieldId Field);

  /// Runs the worklist algorithm to a fixed point. Safe to call repeatedly;
  /// constraints added after a solve are picked up by the next solve.
  void solve();

  /// Points-to set of \p V (complete after solve()), in the order its
  /// objects arrived. The span lives until the solver is next written.
  std::span<const ObjId> pointsTo(VarId V) const;

  /// Points-to set of field \p Field of object \p O (complete after
  /// solve()); empty if the field was never stored to.
  std::span<const ObjId> fieldPointsTo(ObjId O, FieldId Field) const;

  /// True if the points-to sets of \p A and \p B intersect (after solve()).
  bool mayAlias(VarId A, VarId B) const;

  /// Forgets every variable, object and constraint.
  void clear();

  size_t numVars() const { return Vars.size(); }
  size_t numObjs() const { return NumObjs; }

private:
  /// A pending field constraint: base.Field ⊇ Var (store) or
  /// Var ⊇ base.Field (load).
  struct FieldEdge {
    FieldId Field;
    VarId Var;
  };
  struct VarNode {
    ArenaList<ObjId> Pts;
    ArenaList<VarId> CopyTo; ///< Subset edges out of this node.
    ArenaList<FieldEdge> Stores, Loads;
    /// Pts[0, Done) have been dispatched to the field constraints and
    /// propagated along CopyTo.
    uint32_t Done = 0;
  };

  /// Returns (creating on demand) the variable node representing
  /// fld(\p O, \p Field).
  VarId fieldVar(ObjId O, FieldId Field);

  /// Adds \p O to pts(\p V); returns whether the set grew.
  bool insertPts(VarId V, ObjId O);

  std::vector<VarNode> Vars;
  ObjId NumObjs = 0;
  /// Every variable's lists.
  Arena Lists;
  /// (var, object) pairs of every points-to set, (source, target) pairs of
  /// every subset edge, and (object, field) -> field variable, each packed
  /// into 64 bits.
  FlatMap<uint64_t, bool> PtsMembers, CopyEdges;
  FlatMap<uint64_t, VarId> FieldVars;
  std::vector<VarId> Worklist;
};

} // namespace pointsto
} // namespace seldon

#endif // SELDON_POINTSTO_ANDERSENSOLVER_H
