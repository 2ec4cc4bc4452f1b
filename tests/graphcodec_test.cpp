//===- tests/graphcodec_test.cpp - Codec round-trip properties ------------===//
//
// The contract of propgraph/GraphCodec.h, swept over seeded-random
// corpora: encode -> decode -> re-encode must be byte-identical, decoded
// graphs must be structurally identical to the originals, and a decoded
// graph must produce an identical constraint system — the invariant the
// graph cache's byte-identity guarantee rests on.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "constraints/ConstraintGen.h"
#include "propgraph/GraphCodec.h"
#include "support/BinaryCodec.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

/// An event's options as strings, and an adjacency list as ids, in
/// vectors gtest compares and prints.
std::vector<std::string> strings(const RepRange &Reps) {
  return {Reps.begin(), Reps.end()};
}
std::vector<EventId> ids(std::span<const EventId> List) {
  return {List.begin(), List.end()};
}

/// Structural equality of two graphs, field by field.
void expectGraphsIdentical(const PropagationGraph &A,
                           const PropagationGraph &B) {
  ASSERT_EQ(A.files().size(), B.files().size());
  for (size_t I = 0; I < A.files().size(); ++I)
    EXPECT_EQ(A.files()[I], B.files()[I]);
  ASSERT_EQ(A.numEvents(), B.numEvents());
  ASSERT_EQ(A.numEdges(), B.numEdges());
  for (EventId Id = 0; Id < A.numEvents(); ++Id) {
    const Event &EA = A.event(Id);
    const Event &EB = B.event(Id);
    EXPECT_EQ(EA.Id, EB.Id);
    EXPECT_EQ(EA.Kind, EB.Kind);
    EXPECT_EQ(strings(EA.Reps), strings(EB.Reps));
    EXPECT_EQ(EA.Candidates, EB.Candidates);
    EXPECT_EQ(EA.FileIdx, EB.FileIdx);
    EXPECT_EQ(EA.Loc.Line, EB.Loc.Line);
    EXPECT_EQ(EA.Loc.Col, EB.Loc.Col);
    EXPECT_EQ(ids(A.successors(Id)), ids(B.successors(Id)));
    EXPECT_EQ(ids(A.predecessors(Id)), ids(B.predecessors(Id)));
  }
}

/// Exact equality of two constraint systems.
void expectSystemsIdentical(const constraints::ConstraintSystem &A,
                            const constraints::ConstraintSystem &B) {
  EXPECT_EQ(A.Vars.numVars(), B.Vars.numVars());
  EXPECT_EQ(A.NumCandidates, B.NumCandidates);
  EXPECT_EQ(A.Pinned.size(), B.Pinned.size());
  ASSERT_EQ(A.Constraints.size(), B.Constraints.size());
  for (size_t I = 0; I < A.Constraints.size(); ++I) {
    const solver::LinearConstraint &CA = A.Constraints[I];
    const solver::LinearConstraint &CB = B.Constraints[I];
    EXPECT_EQ(CA.C, CB.C);
    ASSERT_EQ(CA.Lhs.size(), CB.Lhs.size());
    for (size_t T = 0; T < CA.Lhs.size(); ++T) {
      EXPECT_EQ(CA.Lhs[T].Var, CB.Lhs[T].Var);
      EXPECT_EQ(CA.Lhs[T].Coef, CB.Lhs[T].Coef);
    }
    ASSERT_EQ(CA.Rhs.size(), CB.Rhs.size());
    for (size_t T = 0; T < CA.Rhs.size(); ++T) {
      EXPECT_EQ(CA.Rhs[T].Var, CB.Rhs[T].Var);
      EXPECT_EQ(CA.Rhs[T].Coef, CB.Rhs[T].Coef);
    }
  }
}

//===----------------------------------------------------------------------===//
// Round-trip sweeps over generated corpora
//===----------------------------------------------------------------------===//

class CodecSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecSweepTest, RoundTripIsByteIdentical) {
  corpus::Corpus Data = testutil::makeCorpus(GetParam(), /*NumProjects=*/6);
  for (const pysem::Project &P : Data.Projects) {
    PropagationGraph Original = buildProjectGraph(P);
    std::string Encoded = encodeGraph(Original);

    io::IOResult<PropagationGraph> Decoded = decodeGraph(Encoded);
    ASSERT_TRUE(Decoded.ok()) << Decoded.Error;
    expectGraphsIdentical(Original, Decoded.Value);

    // The canonical-form property: re-encoding reproduces the bytes.
    EXPECT_EQ(Encoded, encodeGraph(Decoded.Value))
        << "re-encode differs for project " << P.name() << " at seed "
        << GetParam();
  }
}

TEST_P(CodecSweepTest, DecodedGraphYieldsIdenticalConstraints) {
  corpus::Corpus Data = testutil::makeCorpus(GetParam(), /*NumProjects=*/6);
  PropagationGraph Original = testutil::buildGlobalGraph(Data);

  io::IOResult<PropagationGraph> Decoded =
      decodeGraph(encodeGraph(Original));
  ASSERT_TRUE(Decoded.ok()) << Decoded.Error;

  const RepTable RepsA(
      std::make_shared<const PropagationGraph>(std::move(Original)));
  const RepTable RepsB(
      std::make_shared<const PropagationGraph>(std::move(Decoded.Value)));
  ASSERT_EQ(RepsA.size(), RepsB.size());
  for (RepId Id = 0; Id < RepsA.size(); ++Id) {
    EXPECT_EQ(RepsA.repString(Id), RepsB.repString(Id));
    EXPECT_EQ(RepsA.occurrences(Id), RepsB.occurrences(Id));
  }

  constraints::ConstraintSystem SysA =
      constraints::generateConstraints(RepsA.graph(), RepsA, Data.Seed);
  constraints::ConstraintSystem SysB =
      constraints::generateConstraints(RepsB.graph(), RepsB, Data.Seed);
  expectSystemsIdentical(SysA, SysB);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecSweepTest,
                         ::testing::Values(1, 7, 42, 1234, 99991));

//===----------------------------------------------------------------------===//
// Edge cases
//===----------------------------------------------------------------------===//

TEST(GraphCodecTest, EmptyGraphRoundTrips) {
  PropagationGraph Empty;
  std::string Encoded = encodeGraph(Empty);
  io::IOResult<PropagationGraph> Decoded = decodeGraph(Encoded);
  ASSERT_TRUE(Decoded.ok()) << Decoded.Error;
  EXPECT_EQ(Decoded.Value.numEvents(), 0u);
  EXPECT_EQ(Decoded.Value.numEdges(), 0u);
  EXPECT_EQ(Decoded.Value.files().size(), 0u);
  EXPECT_EQ(Encoded, encodeGraph(Decoded.Value));
}

TEST(GraphCodecTest, HandWrittenGraphRoundTrips) {
  PropagationGraph G;
  uint32_t F = G.addFile("app/views.py");
  EventId SrcId =
      G.addEvent(EventKind::Call, AllRolesMask, F, {12, 7},
                 {"flask.request.args.get()", "request.args.get()"});
  EventId SnkId =
      G.addEvent(EventKind::ObjectRead, SourceMask, F, {13, 1}, {"post.title"});
  G.addEdge(SrcId, SnkId);

  io::IOResult<PropagationGraph> Decoded = decodeGraph(encodeGraph(G));
  ASSERT_TRUE(Decoded.ok()) << Decoded.Error;
  expectGraphsIdentical(G, Decoded.Value);
}

TEST(GraphCodecTest, RejectsForeignBytes) {
  io::IOResult<PropagationGraph> R = decodeGraph("not a graph at all");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("magic"), std::string::npos) << R.Error;
  EXPECT_EQ(R.Value.numEvents(), 0u);
}

TEST(GraphCodecTest, RejectsFutureVersion) {
  PropagationGraph Empty;
  std::string Encoded = encodeGraph(Empty);
  // Byte 4 is the varint format version (currently a single byte).
  Encoded[4] = static_cast<char>(GraphCodecVersion + 1);
  io::IOResult<PropagationGraph> R = decodeGraph(Encoded);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("version"), std::string::npos) << R.Error;
}

TEST(GraphCodecTest, HugeCountIsAnErrorNotAThrow) {
  // A checksum-valid frame whose one event declares 2^61 representations:
  // the decoder must refuse the count, never reserve() for it.
  std::string Payload;
  codec::putVarint(Payload, 1);
  codec::putString(Payload, "app.py");
  codec::putVarint(Payload, 1);
  Payload.push_back(static_cast<char>(EventKind::Call));
  Payload.push_back(static_cast<char>(AllRolesMask));
  codec::putVarint(Payload, 0);  // file index
  codec::putVarint(Payload, 1);  // line
  codec::putVarint(Payload, 1);  // column
  codec::putVarint(Payload, uint64_t(1) << 61);
  std::string Frame = codec::encodeFrame(
      {"SPGC", GraphCodecVersion, "propagation graph"}, Payload);
  io::IOResult<PropagationGraph> R;
  ASSERT_NO_THROW(R = decodeGraph(Frame));
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("representation count"), std::string::npos)
      << R.Error;
  EXPECT_EQ(R.Value.numEvents(), 0u);
}

TEST(GraphCodecTest, FnvDetectsSingleByteDifference) {
  std::string A(256, 'x');
  for (size_t I = 0; I < A.size(); ++I) {
    std::string B = A;
    B[I] = 'y';
    EXPECT_NE(codec::fnv1a64(A), codec::fnv1a64(B))
        << "collision at byte " << I;
  }
}

} // namespace
