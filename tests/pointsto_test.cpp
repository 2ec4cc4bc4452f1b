//===- tests/pointsto_test.cpp - Tests for the Andersen solver ------------===//

#include "pointsto/AndersenSolver.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace seldon;
using namespace seldon::pointsto;

namespace {

/// Field ids as a caller numbers its field names.
constexpr FieldId F = 0, G = 1;

bool contains(std::span<const ObjId> Set, ObjId O) {
  return std::find(Set.begin(), Set.end(), O) != Set.end();
}

TEST(AndersenSolverTest, AllocAndCopy) {
  AndersenSolver S;
  VarId A = S.makeVar(), B = S.makeVar();
  ObjId O = S.makeObj();
  S.addAlloc(A, O);
  S.addCopy(B, A);
  S.solve();
  EXPECT_TRUE(contains(S.pointsTo(B), O));
  EXPECT_TRUE(S.mayAlias(A, B));
}

TEST(AndersenSolverTest, CopyChain) {
  AndersenSolver S;
  VarId V[5];
  for (int I = 0; I < 5; ++I)
    V[I] = S.makeVar();
  ObjId O = S.makeObj();
  S.addAlloc(V[0], O);
  for (int I = 1; I < 5; ++I)
    S.addCopy(V[I], V[I - 1]);
  S.solve();
  EXPECT_TRUE(contains(S.pointsTo(V[4]), O));
}

TEST(AndersenSolverTest, CopyCycleTerminates) {
  AndersenSolver S;
  VarId A = S.makeVar(), B = S.makeVar();
  ObjId O = S.makeObj();
  S.addAlloc(A, O);
  S.addCopy(B, A);
  S.addCopy(A, B);
  S.solve();
  EXPECT_TRUE(contains(S.pointsTo(A), O));
  EXPECT_TRUE(contains(S.pointsTo(B), O));
}

TEST(AndersenSolverTest, FieldStoreLoad) {
  // p = obj; p.f = q; r = obj.f  =>  r points to what q points to.
  AndersenSolver S;
  VarId Obj = S.makeVar(), P = S.makeVar(), Q = S.makeVar(),
        R = S.makeVar();
  ObjId Heap = S.makeObj(), Payload = S.makeObj();
  S.addAlloc(Obj, Heap);
  S.addCopy(P, Obj);
  S.addAlloc(Q, Payload);
  S.addStore(P, F, Q);
  S.addLoad(R, Obj, F);
  S.solve();
  EXPECT_TRUE(contains(S.pointsTo(R), Payload));
  EXPECT_TRUE(contains(S.fieldPointsTo(Heap, F), Payload));
}

TEST(AndersenSolverTest, FieldsAreSeparate) {
  AndersenSolver S;
  VarId Obj = S.makeVar(), Q = S.makeVar(), R = S.makeVar();
  ObjId Heap = S.makeObj(), Payload = S.makeObj();
  S.addAlloc(Obj, Heap);
  S.addAlloc(Q, Payload);
  S.addStore(Obj, F, Q);
  S.addLoad(R, Obj, G);
  S.solve();
  EXPECT_TRUE(S.pointsTo(R).empty()) << "field g was never written";
}

TEST(AndersenSolverTest, StoreBeforeBasePopulated) {
  // The store is registered before `base` points anywhere; the worklist
  // must dispatch it when the object arrives.
  AndersenSolver S;
  VarId Base = S.makeVar(), Src = S.makeVar(),
        Pre = S.makeVar(), Dst = S.makeVar();
  ObjId Heap = S.makeObj(), Payload = S.makeObj();
  S.addStore(Base, F, Src);
  S.addLoad(Dst, Base, F);
  S.addAlloc(Src, Payload);
  S.addAlloc(Pre, Heap);
  S.addCopy(Base, Pre);
  S.solve();
  EXPECT_TRUE(contains(S.pointsTo(Dst), Payload));
}

TEST(AndersenSolverTest, IncrementalResolve) {
  AndersenSolver S;
  VarId A = S.makeVar(), B = S.makeVar();
  ObjId O1 = S.makeObj();
  S.addAlloc(A, O1);
  S.solve();
  // Add constraints after a solve; a second solve must pick them up.
  ObjId O2 = S.makeObj();
  S.addAlloc(A, O2);
  S.addCopy(B, A);
  S.solve();
  EXPECT_EQ(S.pointsTo(B).size(), 2u);
}

TEST(AndersenSolverTest, NoAliasWhenDisjoint) {
  AndersenSolver S;
  VarId A = S.makeVar(), B = S.makeVar();
  S.addAlloc(A, S.makeObj());
  S.addAlloc(B, S.makeObj());
  S.solve();
  EXPECT_FALSE(S.mayAlias(A, B));
}

TEST(AndersenSolverTest, ClearStartsOver) {
  // A solver reused after clear() solves as a fresh one does.
  AndersenSolver S;
  VarId A = S.makeVar(), B = S.makeVar();
  S.addAlloc(A, S.makeObj());
  S.addCopy(B, A);
  S.addStore(A, F, B);
  S.solve();
  S.clear();
  EXPECT_EQ(S.numVars(), 0u);
  EXPECT_EQ(S.numObjs(), 0u);
  VarId Obj = S.makeVar(), Q = S.makeVar(), R = S.makeVar();
  ObjId Heap = S.makeObj(), Payload = S.makeObj();
  S.addAlloc(Obj, Heap);
  S.addAlloc(Q, Payload);
  S.addStore(Obj, F, Q);
  S.addLoad(R, Obj, F);
  S.solve();
  EXPECT_TRUE(contains(S.pointsTo(R), Payload));
  EXPECT_FALSE(contains(S.pointsTo(R), Heap));
  EXPECT_FALSE(S.mayAlias(Obj, Q));
}

} // namespace
