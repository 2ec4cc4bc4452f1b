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
/// classic worklist algorithm runs to a fixed point.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_POINTSTO_ANDERSENSOLVER_H
#define SELDON_POINTSTO_ANDERSENSOLVER_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace seldon {
namespace pointsto {

using VarId = uint32_t;
using ObjId = uint32_t;

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
  void addStore(VarId Base, const std::string &Field, VarId Src);

  /// Constraint: for every o ∈ pts(\p Base), pts(\p Dst) ⊇ fld(o, \p Field).
  void addLoad(VarId Dst, VarId Base, const std::string &Field);

  /// Runs the worklist algorithm to a fixed point. Safe to call repeatedly;
  /// constraints added after a solve are picked up by the next solve.
  void solve();

  /// Points-to set of \p V (valid after solve()).
  const std::set<ObjId> &pointsTo(VarId V) const;

  /// Points-to set of field \p Field of object \p O (valid after solve()).
  /// Returns an empty set if the field was never stored to.
  const std::set<ObjId> &fieldPointsTo(ObjId O, const std::string &Field) const;

  /// True if the points-to sets of \p A and \p B intersect (after solve()).
  bool mayAlias(VarId A, VarId B) const;

  size_t numVars() const { return Vars.size(); }
  size_t numObjs() const { return NumObjs; }

private:
  struct VarNode {
    std::set<ObjId> Pts;
    std::set<VarId> CopyTo; ///< Subset edges out of this node.
    /// Pending complex constraints keyed by field name.
    std::vector<std::pair<std::string, VarId>> Stores; ///< base.f ⊇ src
    std::vector<std::pair<std::string, VarId>> Loads;  ///< dst ⊇ base.f
  };

  /// Returns (creating on demand) the variable node representing
  /// fld(\p O, \p Field).
  VarId fieldVar(ObjId O, const std::string &Field);

  /// Adds \p O to pts(\p V); pushes \p V on the worklist when it grows.
  void addToPts(VarId V, ObjId O);

  std::vector<VarNode> Vars;
  ObjId NumObjs = 0;
  std::map<std::pair<ObjId, std::string>, VarId> FieldVars;
  std::vector<VarId> Worklist;
  /// Tracks which (object) entries each var already dispatched complex
  /// constraints for, to keep solve() idempotent and incremental.
  std::vector<std::set<ObjId>> Dispatched;
  static const std::set<ObjId> EmptySet;
};

} // namespace pointsto
} // namespace seldon

#endif // SELDON_POINTSTO_ANDERSENSOLVER_H
