//===- tests/durability_fault_test.cpp - Durable-state corruption ---------===//
//
// Fault injection against seldond's durability layer: every truncation
// point and every bit flip of a snapshot must produce a descriptive
// error, never partial state; the journal scanner must classify a torn
// trailing frame as recoverable and everything else as corruption; and
// StateStore::recover() must evict, truncate, and fall back exactly as
// service/StateStore.h promises — mirroring cache_fault_test's contract
// for the caches.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "service/StateCodec.h"
#include "service/StateStore.h"
#include "support/BinaryCodec.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

using namespace seldon;
using namespace seldon::service;

namespace fs = std::filesystem;

namespace {

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

std::string makeScratchDir(const std::string &Prefix) {
  static std::atomic<uint64_t> Seq{0};
  fs::path Dir = fs::temp_directory_path() /
                 (Prefix + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(Seq.fetch_add(1)));
  fs::create_directories(Dir);
  return Dir.string();
}

/// A representative record of each op, with every field load-bearing so
/// a round-trip mismatch cannot hide.
JournalRecord feedbackRecord(uint64_t Seq) {
  JournalRecord R;
  R.Seq = Seq;
  R.Op = JournalOp::Feedback;
  R.Entries.push_back({"flask.escape()", propgraph::Role::Sanitizer, true});
  R.Entries.push_back({"os.system()", propgraph::Role::Sink, false});
  R.FeedbackOpts.AcceptWeight = 2.5;
  R.FeedbackOpts.RejectWeight = 0.75;
  R.FeedbackOpts.SimilarityDecay = 0.125;
  R.Iters = 321;
  R.WarmStart = true;
  return R;
}

JournalRecord learnRecord(uint64_t Seq) {
  JournalRecord R;
  R.Seq = Seq;
  R.Op = JournalOp::Learn;
  R.Iters = 777;
  R.WarmStart = false;
  R.Reload = true;
  return R;
}

JournalRecord abortRecord(uint64_t Seq, uint64_t Aborted) {
  JournalRecord R;
  R.Seq = Seq;
  R.Op = JournalOp::Abort;
  R.AbortedSeq = Aborted;
  return R;
}

void expectRecordsEqual(const JournalRecord &A, const JournalRecord &B,
                        const std::string &Where) {
  EXPECT_EQ(A.Seq, B.Seq) << Where;
  EXPECT_EQ(A.Op, B.Op) << Where;
  ASSERT_EQ(A.Entries.size(), B.Entries.size()) << Where;
  for (size_t I = 0; I < A.Entries.size(); ++I) {
    EXPECT_EQ(A.Entries[I].Rep, B.Entries[I].Rep) << Where;
    EXPECT_EQ(A.Entries[I].R, B.Entries[I].R) << Where;
    EXPECT_EQ(A.Entries[I].Accepted, B.Entries[I].Accepted) << Where;
  }
  EXPECT_EQ(A.FeedbackOpts.AcceptWeight, B.FeedbackOpts.AcceptWeight)
      << Where;
  EXPECT_EQ(A.FeedbackOpts.RejectWeight, B.FeedbackOpts.RejectWeight)
      << Where;
  EXPECT_EQ(A.FeedbackOpts.SimilarityDecay, B.FeedbackOpts.SimilarityDecay)
      << Where;
  EXPECT_EQ(A.Iters, B.Iters) << Where;
  EXPECT_EQ(A.WarmStart, B.WarmStart) << Where;
  EXPECT_EQ(A.Reload, B.Reload) << Where;
  EXPECT_EQ(A.AbortedSeq, B.AbortedSeq) << Where;
}

/// A checksum-valid snapshot frame whose payload declares 2^61 scores,
/// with nothing after the count. \p ConvergedByte is the converged flag;
/// anything but 0 or 1 makes the flag itself the first failure.
std::string hugeScoreCountSnapshot(char ConvergedByte = 1) {
  std::string Payload;
  codec::putVarint(Payload, 2);       // covered sequence number
  codec::putFixed64(Payload, 0);      // system fingerprint
  codec::putVarint(Payload, 600);     // solve iterations
  Payload.push_back(ConvergedByte);   // converged
  codec::putFixed64(Payload, 0);      // final objective
  codec::putVarint(Payload, 0);       // non-finite steps
  codec::putVarint(Payload, 0);       // recoveries
  Payload.push_back(0);               // fell back
  Payload.push_back(0);               // deadline expired
  codec::putVarint(Payload, uint64_t(1) << 61);
  return codec::encodeFrame(
      {"SSNP", SnapshotCodecVersion, "seldond state snapshot"}, Payload);
}

StateSnapshot sampleSnapshot() {
  StateSnapshot S;
  S.LastSeq = 42;
  S.Fingerprint = 0x1234'5678'9abc'def0ull;
  S.Solve.X = {0.0, 1.0, 0.1, 1.0 / 3.0, 0.30000000000000004, -0.0};
  S.Solve.FinalObjective = 0.0625;
  S.Solve.Iterations = 600;
  S.Solve.Converged = true;
  S.Solve.NonFiniteSteps = 1;
  S.Solve.Recoveries = 2;
  S.Solve.FellBack = false;
  S.Solve.DeadlineExpired = false;
  S.FeedbackOpts.AcceptWeight = 1.5;
  S.FeedbackOpts.RejectWeight = 0.5;
  S.FeedbackOpts.SimilarityDecay = 0.25;
  S.Feedback.push_back({"flask.escape()", propgraph::Role::Sanitizer, true});
  S.Feedback.push_back({"eval()", propgraph::Role::Sink, true});
  return S;
}

//===----------------------------------------------------------------------===//
// Codec-level: the journal scanner
//===----------------------------------------------------------------------===//

TEST(JournalCodecTest, RoundTripsEveryOp) {
  std::vector<JournalRecord> Records = {feedbackRecord(1), learnRecord(2),
                                        abortRecord(3, 1)};
  std::string Bytes = journalHeader();
  for (const JournalRecord &R : Records)
    Bytes += encodeJournalRecord(R);

  io::IOResult<JournalScan> Scan = scanJournal(Bytes);
  ASSERT_TRUE(Scan.ok()) << Scan.Error;
  EXPECT_FALSE(Scan.Value.Torn);
  EXPECT_EQ(Scan.Value.ValidBytes, Bytes.size());
  ASSERT_EQ(Scan.Value.Records.size(), Records.size());
  for (size_t I = 0; I < Records.size(); ++I)
    expectRecordsEqual(Scan.Value.Records[I], Records[I],
                       "record " + std::to_string(I));
}

TEST(JournalCodecTest, EveryTruncationIsTornOrRejectedNeverPartial) {
  std::vector<JournalRecord> Records = {feedbackRecord(1), learnRecord(2)};
  std::string Bytes = journalHeader();
  // Frame boundaries: after the header and after each complete frame.
  std::vector<size_t> Boundaries = {Bytes.size()};
  for (const JournalRecord &R : Records) {
    Bytes += encodeJournalRecord(R);
    Boundaries.push_back(Bytes.size());
  }

  for (size_t Len = 0; Len <= Bytes.size(); ++Len) {
    io::IOResult<JournalScan> Scan =
        scanJournal(std::string_view(Bytes).substr(0, Len));
    if (Len < Boundaries.front()) {
      // Inside the file header: corruption, not a torn tail.
      EXPECT_FALSE(Scan.ok()) << "header truncated to " << Len << " scanned";
      EXPECT_FALSE(Scan.Error.empty());
      EXPECT_TRUE(Scan.Value.Records.empty()) << "partial scan at " << Len;
      continue;
    }
    ASSERT_TRUE(Scan.ok()) << "length " << Len << ": " << Scan.Error;
    // The valid prefix is the largest frame boundary at or below Len, and
    // the records are exactly the complete frames before it.
    size_t Boundary = 0, NumComplete = 0;
    for (size_t I = 0; I < Boundaries.size(); ++I)
      if (Boundaries[I] <= Len) {
        Boundary = Boundaries[I];
        NumComplete = I; // Boundaries[0] is the header: 0 records.
      }
    EXPECT_EQ(Scan.Value.Torn, Len != Boundary) << "length " << Len;
    EXPECT_EQ(Scan.Value.ValidBytes, Boundary) << "length " << Len;
    ASSERT_EQ(Scan.Value.Records.size(), NumComplete) << "length " << Len;
    for (size_t I = 0; I < NumComplete; ++I)
      expectRecordsEqual(Scan.Value.Records[I], Records[I],
                         "length " + std::to_string(Len));
  }
}

TEST(JournalCodecTest, EveryBitFlipIsRejectedOrTornNeverWrong) {
  std::vector<JournalRecord> Records = {feedbackRecord(1), learnRecord(2)};
  std::string Bytes = journalHeader();
  for (const JournalRecord &R : Records)
    Bytes += encodeJournalRecord(R);

  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Mutated = Bytes;
    Mutated[I] = static_cast<char>(Mutated[I] ^ 0xff);
    io::IOResult<JournalScan> Scan = scanJournal(Mutated);
    if (!Scan.ok()) {
      EXPECT_FALSE(Scan.Error.empty()) << "flip at byte " << I;
      EXPECT_TRUE(Scan.Value.Records.empty())
          << "partial scan, flip at " << I;
      continue;
    }
    // The only acceptable success: a flipped length made the final frame
    // look incomplete — a torn tail whose surviving records are a strict
    // prefix of the originals. A full, silently-different scan is the one
    // outcome the checksum exists to prevent.
    EXPECT_TRUE(Scan.Value.Torn) << "flip at byte " << I
                                 << " scanned as a complete journal";
    ASSERT_LT(Scan.Value.Records.size(), Records.size())
        << "flip at byte " << I;
    for (size_t R = 0; R < Scan.Value.Records.size(); ++R)
      expectRecordsEqual(Scan.Value.Records[R], Records[R],
                         "flip at byte " + std::to_string(I));
  }
}

TEST(JournalCodecTest, RetiredBackendBytesReplayOnTheCompiledKernel) {
  // A learn record ends with its backend byte. Bytes 0, 2 and 3 named the
  // legacy, simd and simd-f32 evaluators before they merged into the
  // compiled kernel: a journal holding them must still replay, on that
  // kernel, while a byte past the old range stays corrupt.
  std::string Frame = encodeJournalRecord(learnRecord(2));
  EXPECT_EQ(Frame.back(), 1) << "new learn records write backend byte 1";
  // Frame = fixed64 checksum + varint length + payload; re-frame the
  // payload with the backend byte rewritten and a matching checksum.
  auto Reframed = [&](uint8_t Backend) {
    std::string Payload = Frame.substr(8 + 1);
    Payload.back() = static_cast<char>(Backend);
    std::string Out;
    codec::putFixed64(Out, codec::fnv1a64(Payload));
    codec::putVarint(Out, Payload.size());
    return journalHeader() + Out + Payload;
  };
  ASSERT_LT(Frame.size() - 9, 128u) << "payload length is a 1-byte varint";
  ASSERT_EQ(journalHeader() + Frame, Reframed(1));

  for (uint8_t Backend : {0, 1, 2, 3}) {
    io::IOResult<JournalScan> Scan = scanJournal(Reframed(Backend));
    ASSERT_TRUE(Scan.ok()) << "backend byte " << int(Backend) << ": "
                           << Scan.Error;
    ASSERT_EQ(Scan.Value.Records.size(), 1u);
    expectRecordsEqual(Scan.Value.Records[0], learnRecord(2),
                       "backend byte " + std::to_string(Backend));
  }
  for (uint8_t Backend : {4, 255}) {
    io::IOResult<JournalScan> Scan = scanJournal(Reframed(Backend));
    EXPECT_FALSE(Scan.ok()) << "backend byte " << int(Backend);
    EXPECT_NE(Scan.Error.find("unknown solver backend"), std::string::npos)
        << Scan.Error;
  }
}

//===----------------------------------------------------------------------===//
// Codec-level: the snapshot image
//===----------------------------------------------------------------------===//

TEST(SnapshotCodecTest, RoundTripsBitExactly) {
  StateSnapshot S = sampleSnapshot();
  std::string Bytes = encodeSnapshot(S);
  io::IOResult<StateSnapshot> R = decodeSnapshot(Bytes);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Value.LastSeq, S.LastSeq);
  EXPECT_EQ(R.Value.Fingerprint, S.Fingerprint);
  ASSERT_EQ(R.Value.Solve.X.size(), S.Solve.X.size());
  for (size_t I = 0; I < S.Solve.X.size(); ++I) {
    // Bit-pattern equality, not numeric: -0.0 must survive as -0.0.
    uint64_t A, B;
    static_assert(sizeof(double) == sizeof(uint64_t), "fixed64 doubles");
    std::memcpy(&A, &R.Value.Solve.X[I], sizeof(A));
    std::memcpy(&B, &S.Solve.X[I], sizeof(B));
    EXPECT_EQ(A, B) << "X[" << I << "]";
  }
  EXPECT_EQ(R.Value.Solve.FinalObjective, S.Solve.FinalObjective);
  EXPECT_EQ(R.Value.Solve.Iterations, S.Solve.Iterations);
  EXPECT_EQ(R.Value.Solve.Converged, S.Solve.Converged);
  EXPECT_EQ(R.Value.Solve.NonFiniteSteps, S.Solve.NonFiniteSteps);
  EXPECT_EQ(R.Value.Solve.Recoveries, S.Solve.Recoveries);
  EXPECT_EQ(R.Value.Solve.FellBack, S.Solve.FellBack);
  EXPECT_EQ(R.Value.Solve.DeadlineExpired, S.Solve.DeadlineExpired);
  EXPECT_EQ(R.Value.FeedbackOpts.AcceptWeight, S.FeedbackOpts.AcceptWeight);
  EXPECT_EQ(R.Value.FeedbackOpts.RejectWeight, S.FeedbackOpts.RejectWeight);
  EXPECT_EQ(R.Value.FeedbackOpts.SimilarityDecay,
            S.FeedbackOpts.SimilarityDecay);
  ASSERT_EQ(R.Value.Feedback.size(), S.Feedback.size());
  for (size_t I = 0; I < S.Feedback.size(); ++I) {
    EXPECT_EQ(R.Value.Feedback[I].Rep, S.Feedback[I].Rep);
    EXPECT_EQ(R.Value.Feedback[I].R, S.Feedback[I].R);
    EXPECT_EQ(R.Value.Feedback[I].Accepted, S.Feedback[I].Accepted);
  }
}

TEST(SnapshotCodecTest, EveryTruncationIsRejected) {
  std::string Bytes = encodeSnapshot(sampleSnapshot());
  ASSERT_GT(Bytes.size(), 16u);
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    io::IOResult<StateSnapshot> R =
        decodeSnapshot(std::string_view(Bytes).substr(0, Len));
    EXPECT_FALSE(R.ok()) << "truncation to " << Len << " decoded";
    EXPECT_FALSE(R.Error.empty());
    // Never partial: the value stays default-constructed.
    EXPECT_EQ(R.Value.LastSeq, 0u) << "partial snapshot at " << Len;
    EXPECT_TRUE(R.Value.Solve.X.empty()) << "partial X at " << Len;
    EXPECT_TRUE(R.Value.Feedback.empty()) << "partial feedback at " << Len;
  }
}

TEST(SnapshotCodecTest, EveryBitFlipIsRejected) {
  std::string Bytes = encodeSnapshot(sampleSnapshot());
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Mutated = Bytes;
    Mutated[I] = static_cast<char>(Mutated[I] ^ 0xff);
    io::IOResult<StateSnapshot> R = decodeSnapshot(Mutated);
    EXPECT_FALSE(R.ok()) << "flip at byte " << I << " decoded";
    EXPECT_FALSE(R.Error.empty()) << "flip at byte " << I;
    EXPECT_TRUE(R.Value.Solve.X.empty()) << "partial X, flip at " << I;
  }
}

TEST(SnapshotCodecTest, HugeScoreCountIsAnErrorNotAThrow) {
  // 2^61 * 8 wraps to 0 in 64 bits; the bound must not. With a bad flag
  // byte the flag fails first, and the count read after it must not size
  // X either.
  const std::pair<char, const char *> Cases[] = {{1, "score count"},
                                                 {2, "converged flag"}};
  for (const auto &[ConvergedByte, FirstFailure] : Cases) {
    io::IOResult<StateSnapshot> R;
    ASSERT_NO_THROW(R = decodeSnapshot(hugeScoreCountSnapshot(ConvergedByte)))
        << FirstFailure;
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.Error.find(FirstFailure), std::string::npos) << R.Error;
    EXPECT_TRUE(R.Value.Solve.X.empty()) << FirstFailure;
  }
}

TEST(SnapshotCodecTest, TrailingGarbageIsRejected) {
  std::string Bytes = encodeSnapshot(sampleSnapshot()) + "x";
  io::IOResult<StateSnapshot> R = decodeSnapshot(Bytes);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Error.empty());
}

/// The fingerprint covers the whole system a snapshot's scores solve:
/// systems that agree on their variables, row count and candidate count
/// still differ in it when one term, slack or pin value differs, and the
/// same system always gets the same fingerprint.
TEST(SnapshotCodecTest, FingerprintCoversEveryTermAndPin) {
  const propgraph::RepTable Reps = testutil::repTableOf(
      {{"web.read()"}, {"db.run()"}, {"mid.filter()"}});
  // Variables 0, 1 and 2: web.read()^source, db.run()^sink and
  // mid.filter()^sanitizer. The second row and the pin vary.
  auto Fingerprint = [&](std::vector<solver::Term> Lhs,
                         std::vector<solver::Term> Rhs, double C,
                         double Pin) {
    constraints::ConstraintSystem Sys;
    Sys.Vars.varFor(testutil::repIdOf(Reps, "web.read()"),
                    propgraph::Role::Source);
    Sys.Vars.varFor(testutil::repIdOf(Reps, "db.run()"),
                    propgraph::Role::Sink);
    Sys.Vars.varFor(testutil::repIdOf(Reps, "mid.filter()"),
                    propgraph::Role::Sanitizer);
    Sys.Constraints.add({{0, 1.0f}, {1, 1.0f}}, {{2, 1.0f}}, 0.75);
    Sys.Constraints.add(Lhs, Rhs, C);
    Sys.Pinned.emplace_back(0, Pin);
    Sys.NumCandidates = 3;
    return systemFingerprint(Sys, Reps);
  };
  const uint64_t Base = Fingerprint({{2, 0.5f}}, {}, 0.75, 1.0);
  EXPECT_EQ(Fingerprint({{2, 0.5f}}, {}, 0.75, 1.0), Base) << "same system";
  EXPECT_NE(Fingerprint({{1, 0.5f}}, {}, 0.75, 1.0), Base) << "a variable";
  EXPECT_NE(Fingerprint({{2, 0.25f}}, {}, 0.75, 1.0), Base)
      << "a coefficient";
  EXPECT_NE(Fingerprint({}, {{2, 0.5f}}, 0.75, 1.0), Base) << "a side";
  EXPECT_NE(Fingerprint({{2, 0.5f}}, {}, 1.0, 1.0), Base) << "a slack";
  EXPECT_NE(Fingerprint({{2, 0.5f}}, {}, 0.75, 0.0), Base) << "a pin value";
}

//===----------------------------------------------------------------------===//
// Store-level: recover() under every corruption class
//===----------------------------------------------------------------------===//

TEST(StateStoreTest, AppendedRecordsReplayInOrder) {
  std::string Dir = makeScratchDir("state-append");
  {
    StateStore Store(Dir);
    ASSERT_TRUE(Store.valid()) << Store.error();
    uint64_t Fsyncs0 = Store.stats().Fsyncs; // Header publish syncs too.
    std::string Error;
    ASSERT_TRUE(Store.appendRecord(feedbackRecord(1), Error)) << Error;
    ASSERT_TRUE(Store.appendRecord(learnRecord(2), Error)) << Error;
    EXPECT_EQ(Store.stats().Appends, 2u);
    EXPECT_EQ(Store.stats().Fsyncs, Fsyncs0 + 2);
    EXPECT_GT(Store.stats().BytesAppended, 0u);
  }
  StateStore Reopened(Dir);
  ASSERT_TRUE(Reopened.valid()) << Reopened.error();
  io::IOResult<RecoveredState> R = Reopened.recover();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.Value.HasSnapshot);
  ASSERT_EQ(R.Value.Replay.size(), 2u);
  expectRecordsEqual(R.Value.Replay[0], feedbackRecord(1), "replay 0");
  expectRecordsEqual(R.Value.Replay[1], learnRecord(2), "replay 1");
  EXPECT_EQ(Reopened.stats().ReplayedRecords, 2u);
  fs::remove_all(Dir);
}

TEST(StateStoreTest, AbortedRecordsAreNotReplayed) {
  std::string Dir = makeScratchDir("state-abort");
  {
    StateStore Store(Dir);
    ASSERT_TRUE(Store.valid()) << Store.error();
    std::string Error;
    ASSERT_TRUE(Store.appendRecord(feedbackRecord(1), Error)) << Error;
    ASSERT_TRUE(Store.appendRecord(learnRecord(2), Error)) << Error;
    ASSERT_TRUE(Store.appendRecord(abortRecord(3, 1), Error)) << Error;
  }
  StateStore Reopened(Dir);
  io::IOResult<RecoveredState> R = Reopened.recover();
  ASSERT_TRUE(R.ok()) << R.Error;
  // Record 1 failed after journaling (abort 3 says so); only 2 replays.
  ASSERT_EQ(R.Value.Replay.size(), 1u);
  expectRecordsEqual(R.Value.Replay[0], learnRecord(2), "survivor");
  fs::remove_all(Dir);
}

TEST(StateStoreTest, SnapshotSetsTheReplayHorizonAndCompacts) {
  std::string Dir = makeScratchDir("state-horizon");
  StateSnapshot Snap = sampleSnapshot();
  Snap.LastSeq = 2;
  {
    StateStore Store(Dir);
    ASSERT_TRUE(Store.valid()) << Store.error();
    std::string Error;
    ASSERT_TRUE(Store.appendRecord(feedbackRecord(1), Error)) << Error;
    ASSERT_TRUE(Store.appendRecord(learnRecord(2), Error)) << Error;
    ASSERT_TRUE(Store.writeSnapshot(Snap, Error)) << Error;
    // Compaction reset the journal to a bare header...
    EXPECT_EQ(readFileBytes(Store.journalPath()), journalHeader());
    EXPECT_EQ(Store.stats().Snapshots, 1u);
    EXPECT_EQ(Store.stats().Compactions, 1u);
    // ...and later appends land in the fresh journal.
    ASSERT_TRUE(Store.appendRecord(feedbackRecord(3), Error)) << Error;
  }
  StateStore Reopened(Dir);
  io::IOResult<RecoveredState> R = Reopened.recover();
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_TRUE(R.Value.HasSnapshot);
  EXPECT_EQ(R.Value.Snapshot.LastSeq, 2u);
  EXPECT_EQ(R.Value.Snapshot.Fingerprint, Snap.Fingerprint);
  ASSERT_EQ(R.Value.Replay.size(), 1u);
  expectRecordsEqual(R.Value.Replay[0], feedbackRecord(3), "suffix");
  fs::remove_all(Dir);
}

TEST(StateStoreTest, StaleSnapshotRecordsAreSkippedWithoutCompaction) {
  // A crash between snapshot publication and journal reset leaves the
  // journal holding records the snapshot already covers; the sequence
  // horizon must drop them.
  std::string Dir = makeScratchDir("state-precompact");
  StateSnapshot Snap = sampleSnapshot();
  Snap.LastSeq = 1;
  {
    StateStore Store(Dir);
    std::string Error;
    ASSERT_TRUE(Store.appendRecord(feedbackRecord(1), Error)) << Error;
  }
  // Publish the snapshot by hand — no compaction, like the crash window.
  writeFileBytes(Dir + "/state-1.ssn", encodeSnapshot(Snap));
  StateStore Reopened(Dir);
  io::IOResult<RecoveredState> R = Reopened.recover();
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_TRUE(R.Value.HasSnapshot);
  EXPECT_EQ(R.Value.Snapshot.LastSeq, 1u);
  EXPECT_TRUE(R.Value.Replay.empty()) << "covered record replayed";
  fs::remove_all(Dir);
}

TEST(StateStoreTest, TornTailIsTruncatedInPlace) {
  std::string Dir = makeScratchDir("state-torn");
  std::string JournalPath;
  {
    StateStore Store(Dir);
    std::string Error;
    ASSERT_TRUE(Store.appendRecord(feedbackRecord(1), Error)) << Error;
    ASSERT_TRUE(Store.appendRecord(learnRecord(2), Error)) << Error;
    JournalPath = Store.journalPath();
  }
  // A crashed append: append a strict prefix of a third frame.
  std::string Valid = readFileBytes(JournalPath);
  std::string Frame = encodeJournalRecord(feedbackRecord(3));
  writeFileBytes(JournalPath, Valid + Frame.substr(0, Frame.size() / 2));

  StateStore Reopened(Dir);
  io::IOResult<RecoveredState> R = Reopened.recover();
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Value.Replay.size(), 2u);
  EXPECT_EQ(Reopened.stats().TruncatedTailBytes, Frame.size() / 2);
  // The tail is physically gone: the file is the valid prefix again and
  // new appends extend it cleanly.
  EXPECT_EQ(readFileBytes(JournalPath), Valid);
  std::string Error;
  ASSERT_TRUE(Reopened.appendRecord(feedbackRecord(3), Error)) << Error;
  EXPECT_EQ(readFileBytes(JournalPath), Valid + Frame);
  fs::remove_all(Dir);
}

TEST(StateStoreTest, InteriorCorruptionEvictsTheJournal) {
  std::string Dir = makeScratchDir("state-evict");
  std::string JournalPath;
  {
    StateStore Store(Dir);
    std::string Error;
    ASSERT_TRUE(Store.appendRecord(feedbackRecord(1), Error)) << Error;
    ASSERT_TRUE(Store.appendRecord(learnRecord(2), Error)) << Error;
    JournalPath = Store.journalPath();
  }
  // Flip one payload byte of the *first* frame: a complete frame that
  // fails its checksum — unrecoverable, unlike a torn tail.
  std::string Bytes = readFileBytes(JournalPath);
  size_t Mid = journalHeader().size() + 12;
  ASSERT_LT(Mid, Bytes.size());
  Bytes[Mid] = static_cast<char>(Bytes[Mid] ^ 0xff);
  writeFileBytes(JournalPath, Bytes);

  StateStore Reopened(Dir);
  io::IOResult<RecoveredState> R = Reopened.recover();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Value.Replay.empty()) << "corrupt journal replayed";
  DurabilityStats Stats = Reopened.stats();
  EXPECT_EQ(Stats.EvictedJournals, 1u);
  ASSERT_FALSE(Stats.Errors.empty());
  // The journal was rebuilt as a fresh header and is writable again.
  EXPECT_EQ(readFileBytes(JournalPath), journalHeader());
  std::string Error;
  EXPECT_TRUE(Reopened.appendRecord(feedbackRecord(1), Error)) << Error;
  fs::remove_all(Dir);
}

TEST(StateStoreTest, CorruptNewestSnapshotFallsBackToOlder) {
  std::string Dir = makeScratchDir("state-fallback");
  StateSnapshot Older = sampleSnapshot();
  Older.LastSeq = 1;
  StateSnapshot Newer = sampleSnapshot();
  Newer.LastSeq = 2;
  Newer.Fingerprint = 99;
  std::string NewerPath, OlderPath;
  {
    StateStore Store(Dir);
    std::string Error;
    OlderPath = Store.snapshotPath(1);
    NewerPath = Store.snapshotPath(2);
    // Write snapshots oldest-first without compaction-in-between pruning
    // the older one: plant both by hand.
    writeFileBytes(OlderPath, encodeSnapshot(Older));
    writeFileBytes(NewerPath, encodeSnapshot(Newer));
  }
  // Corrupt the newest.
  std::string Bytes = readFileBytes(NewerPath);
  Bytes[Bytes.size() / 2] = static_cast<char>(Bytes[Bytes.size() / 2] ^ 0xff);
  writeFileBytes(NewerPath, Bytes);

  StateStore Reopened(Dir);
  io::IOResult<RecoveredState> R = Reopened.recover();
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_TRUE(R.Value.HasSnapshot);
  EXPECT_EQ(R.Value.Snapshot.LastSeq, 1u) << "fell back to the older";
  DurabilityStats Stats = Reopened.stats();
  EXPECT_EQ(Stats.EvictedSnapshots, 1u);
  ASSERT_FALSE(Stats.Errors.empty());
  EXPECT_FALSE(fs::exists(NewerPath)) << "corrupt snapshot not evicted";
  EXPECT_TRUE(fs::exists(OlderPath));
  fs::remove_all(Dir);
}

TEST(StateStoreTest, HugeCountSnapshotIsEvictedAndRecoveryFallsBack) {
  // Converged byte 2 makes the flag the first failure, before the count.
  for (char ConvergedByte : {1, 2}) {
    SCOPED_TRACE(testing::Message()
                 << "converged byte " << int(ConvergedByte));
    std::string Dir = makeScratchDir("state-hugecount");
    std::string HugePath;
    {
      StateStore Store(Dir);
      StateSnapshot Older = sampleSnapshot();
      Older.LastSeq = 1;
      writeFileBytes(Store.snapshotPath(1), encodeSnapshot(Older));
      HugePath = Store.snapshotPath(2);
      writeFileBytes(HugePath, hugeScoreCountSnapshot(ConvergedByte));
    }
    StateStore Reopened(Dir);
    io::IOResult<RecoveredState> R;
    ASSERT_NO_THROW(R = Reopened.recover());
    ASSERT_TRUE(R.ok()) << R.Error;
    ASSERT_TRUE(R.Value.HasSnapshot);
    EXPECT_EQ(R.Value.Snapshot.LastSeq, 1u) << "fell back to the older";
    EXPECT_EQ(Reopened.stats().EvictedSnapshots, 1u);
    EXPECT_FALSE(fs::exists(HugePath)) << "bad snapshot not evicted";
    fs::remove_all(Dir);
  }
}

TEST(StateStoreTest, AllSnapshotsCorruptDegradesToJournalOnly) {
  std::string Dir = makeScratchDir("state-allbad");
  {
    StateStore Store(Dir);
    std::string Error;
    ASSERT_TRUE(Store.appendRecord(feedbackRecord(1), Error)) << Error;
    writeFileBytes(Store.snapshotPath(1), "not a snapshot");
  }
  StateStore Reopened(Dir);
  io::IOResult<RecoveredState> R = Reopened.recover();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.Value.HasSnapshot);
  // Without a horizon the journal replays from the top.
  ASSERT_EQ(R.Value.Replay.size(), 1u);
  EXPECT_EQ(Reopened.stats().EvictedSnapshots, 1u);
  fs::remove_all(Dir);
}

TEST(StateStoreTest, SnapshotPrunesOlderSnapshots) {
  std::string Dir = makeScratchDir("state-prune");
  StateStore Store(Dir);
  std::string Error;
  StateSnapshot Snap = sampleSnapshot();
  Snap.LastSeq = 1;
  ASSERT_TRUE(Store.writeSnapshot(Snap, Error)) << Error;
  Snap.LastSeq = 5;
  ASSERT_TRUE(Store.writeSnapshot(Snap, Error)) << Error;
  EXPECT_FALSE(fs::exists(Store.snapshotPath(1))) << "old snapshot kept";
  EXPECT_TRUE(fs::exists(Store.snapshotPath(5)));
  fs::remove_all(Dir);
}

TEST(StateStoreTest, StaleTempsAreSweptOnOpen) {
  std::string Dir = makeScratchDir("state-tmp-sweep");
  { StateStore Store(Dir); } // Creates the journal.
  // Plant: aged snapshot + journal temps (crashed publishes), a fresh
  // temp (possibly a live writer), and a digits-then-letter lookalike.
  std::string OldSnapTmp = Dir + "/state-7.ssn.tmp3";
  std::string OldWalTmp = Dir + "/state.wal.tmp4";
  std::string FreshTmp = Dir + "/state-8.ssn.tmp5";
  std::string Lookalike = Dir + "/state-9.ssn.tmp6x";
  writeFileBytes(OldSnapTmp, "half-written");
  writeFileBytes(OldWalTmp, "half-written");
  writeFileBytes(FreshTmp, "in-flight");
  writeFileBytes(Lookalike, "not a temp");
  auto Old = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(OldSnapTmp, Old);
  fs::last_write_time(OldWalTmp, Old);

  StateStore Reopened(Dir);
  ASSERT_TRUE(Reopened.valid()) << Reopened.error();
  EXPECT_EQ(Reopened.stats().StaleTempsRemoved, 2u);
  EXPECT_FALSE(fs::exists(OldSnapTmp));
  EXPECT_FALSE(fs::exists(OldWalTmp));
  EXPECT_TRUE(fs::exists(FreshTmp)) << "recent temp may be a live writer";
  EXPECT_TRUE(fs::exists(Lookalike)) << "non-numeric suffix is not a temp";
  fs::remove_all(Dir);
}

TEST(StateStoreTest, MetricsCountDurabilityWork) {
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.setEnabled(true);
  uint64_t Appends0 = Reg.counter("journal.appends").value();
  uint64_t Snaps0 = Reg.counter("snapshot.writes").value();

  std::string Dir = makeScratchDir("state-metrics");
  StateStore Store(Dir);
  std::string Error;
  ASSERT_TRUE(Store.appendRecord(feedbackRecord(1), Error)) << Error;
  StateSnapshot Snap = sampleSnapshot();
  Snap.LastSeq = 1;
  ASSERT_TRUE(Store.writeSnapshot(Snap, Error)) << Error;

  EXPECT_EQ(Reg.counter("journal.appends").value(), Appends0 + 1);
  EXPECT_EQ(Reg.counter("snapshot.writes").value(), Snaps0 + 1);
  Reg.setEnabled(false);
  fs::remove_all(Dir);
}

} // namespace
