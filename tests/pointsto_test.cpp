//===- tests/pointsto_test.cpp - Tests for the Andersen solver ------------===//

#include "pointsto/AndersenSolver.h"

#include <gtest/gtest.h>

using namespace seldon;
using namespace seldon::pointsto;

namespace {

TEST(AndersenSolverTest, AllocAndCopy) {
  AndersenSolver S;
  VarId A = S.makeVar(), B = S.makeVar();
  ObjId O = S.makeObj();
  S.addAlloc(A, O);
  S.addCopy(B, A);
  S.solve();
  EXPECT_TRUE(S.pointsTo(B).count(O));
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
  EXPECT_TRUE(S.pointsTo(V[4]).count(O));
}

TEST(AndersenSolverTest, CopyCycleTerminates) {
  AndersenSolver S;
  VarId A = S.makeVar(), B = S.makeVar();
  ObjId O = S.makeObj();
  S.addAlloc(A, O);
  S.addCopy(B, A);
  S.addCopy(A, B);
  S.solve();
  EXPECT_TRUE(S.pointsTo(A).count(O));
  EXPECT_TRUE(S.pointsTo(B).count(O));
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
  S.addStore(P, "f", Q);
  S.addLoad(R, Obj, "f");
  S.solve();
  EXPECT_TRUE(S.pointsTo(R).count(Payload));
  EXPECT_TRUE(S.fieldPointsTo(Heap, "f").count(Payload));
}

TEST(AndersenSolverTest, FieldsAreSeparate) {
  AndersenSolver S;
  VarId Obj = S.makeVar(), Q = S.makeVar(), R = S.makeVar();
  ObjId Heap = S.makeObj(), Payload = S.makeObj();
  S.addAlloc(Obj, Heap);
  S.addAlloc(Q, Payload);
  S.addStore(Obj, "f", Q);
  S.addLoad(R, Obj, "g");
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
  S.addStore(Base, "f", Src);
  S.addLoad(Dst, Base, "f");
  S.addAlloc(Src, Payload);
  S.addAlloc(Pre, Heap);
  S.addCopy(Base, Pre);
  S.solve();
  EXPECT_TRUE(S.pointsTo(Dst).count(Payload));
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

} // namespace
