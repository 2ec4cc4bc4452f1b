//===- service/StateCodec.cpp - Durable-state binary formats --------------===//

#include "service/StateCodec.h"

#include "support/BinaryCodec.h"
#include "support/StrUtil.h"

#include <cstring>

using namespace seldon;
using namespace seldon::service;
using codec::ByteReader;
using codec::putFixed64;
using codec::putString;
using codec::putVarint;

namespace {

constexpr codec::FrameFormat JournalFormat{"SWAL", JournalCodecVersion,
                                          "seldond write-ahead journal"};
constexpr codec::FrameFormat SnapshotFormat{"SSNP", SnapshotCodecVersion,
                                           "seldond state snapshot"};

/// Doubles travel as their exact IEEE-754 bit pattern — a restored score
/// vector is byte-identical to the solved one, never a decimal round trip.
uint64_t doubleBits(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

double bitsDouble(uint64_t Bits) {
  double Value;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return Value;
}

void putFeedbackEntries(std::string &Out,
                        const std::vector<constraints::FeedbackEntry> &Es) {
  putVarint(Out, Es.size());
  for (const constraints::FeedbackEntry &E : Es) {
    putString(Out, E.Rep);
    Out.push_back(static_cast<char>(E.R));
    Out.push_back(E.Accepted ? 1 : 0);
  }
}

std::vector<constraints::FeedbackEntry>
getFeedbackEntries(ByteReader &Reader) {
  std::vector<constraints::FeedbackEntry> Out;
  uint64_t Count = Reader.getCount("feedback entry count");
  for (uint64_t I = 0; Reader.ok() && I < Count; ++I) {
    constraints::FeedbackEntry E;
    std::string_view Rep = Reader.getString("feedback representation");
    uint8_t Role = Reader.getByte("feedback role");
    uint8_t Accepted = Reader.getByte("feedback verdict");
    if (!Reader.ok())
      break;
    if (Rep.empty()) {
      Reader.fail("empty feedback representation");
      break;
    }
    if (Role >= propgraph::NumRoles) {
      Reader.fail(formatString("feedback role %u out of range", Role));
      break;
    }
    if (Accepted > 1) {
      Reader.fail(formatString("feedback verdict %u is not a boolean",
                               Accepted));
      break;
    }
    E.Rep = std::string(Rep);
    E.R = static_cast<propgraph::Role>(Role);
    E.Accepted = Accepted != 0;
    Out.push_back(std::move(E));
  }
  return Out;
}

uint8_t getBool(ByteReader &Reader, const char *What) {
  uint8_t B = Reader.getByte(What);
  if (Reader.ok() && B > 1)
    Reader.fail(formatString("%s byte %u is not a boolean", What, B));
  return B;
}

std::string encodeRecordPayload(const JournalRecord &Record) {
  std::string Payload;
  putVarint(Payload, Record.Seq);
  Payload.push_back(static_cast<char>(Record.Op));
  switch (Record.Op) {
  case JournalOp::Feedback:
    putVarint(Payload, Record.Iters);
    Payload.push_back(Record.WarmStart ? 1 : 0);
    putFixed64(Payload, doubleBits(Record.FeedbackOpts.AcceptWeight));
    putFixed64(Payload, doubleBits(Record.FeedbackOpts.RejectWeight));
    putFixed64(Payload, doubleBits(Record.FeedbackOpts.SimilarityDecay));
    putFeedbackEntries(Payload, Record.Entries);
    break;
  case JournalOp::Learn:
    putVarint(Payload, Record.Iters);
    Payload.push_back(Record.WarmStart ? 1 : 0);
    Payload.push_back(Record.Reload ? 1 : 0);
    // The retired backend byte: 1 named the compiled kernel, the one
    // every solve runs on.
    Payload.push_back(1);
    break;
  case JournalOp::Abort:
    putVarint(Payload, Record.AbortedSeq);
    break;
  }
  return Payload;
}

/// Decodes one record payload; failures land in \p Reader.
JournalRecord decodeRecordPayload(ByteReader &Reader) {
  JournalRecord Record;
  Record.Seq = Reader.getVarint("record sequence number");
  uint8_t Op = Reader.getByte("record op");
  if (!Reader.ok())
    return Record;
  if (Op > static_cast<uint8_t>(JournalOp::Abort)) {
    Reader.fail(formatString("unknown journal op %u", Op));
    return Record;
  }
  Record.Op = static_cast<JournalOp>(Op);
  switch (Record.Op) {
  case JournalOp::Feedback:
    Record.Iters = Reader.getVarint("feedback iters");
    Record.WarmStart = getBool(Reader, "feedback warm flag") != 0;
    Record.FeedbackOpts.AcceptWeight =
        bitsDouble(Reader.getFixed64("accept weight"));
    Record.FeedbackOpts.RejectWeight =
        bitsDouble(Reader.getFixed64("reject weight"));
    Record.FeedbackOpts.SimilarityDecay =
        bitsDouble(Reader.getFixed64("similarity decay"));
    Record.Entries = getFeedbackEntries(Reader);
    break;
  case JournalOp::Learn: {
    Record.Iters = Reader.getVarint("learn iters");
    Record.WarmStart = getBool(Reader, "learn warm flag") != 0;
    Record.Reload = getBool(Reader, "learn reload flag") != 0;
    // Bytes 0-3 named the legacy, compiled, simd and simd-f32 evaluators,
    // which have since merged into the one compiled kernel. Every one of
    // them replays on it, so a journal written before the merge still
    // recovers; new records write 1.
    uint8_t Backend = Reader.getByte("learn backend");
    if (Reader.ok() && Backend > 3)
      Reader.fail(formatString("unknown solver backend %u", Backend));
    break;
  }
  case JournalOp::Abort:
    Record.AbortedSeq = Reader.getVarint("aborted sequence number");
    break;
  }
  return Record;
}

/// Reads the payload encodeSnapshot() wrote; failures land in \p Reader.
StateSnapshot readSnapshot(ByteReader &Reader) {
  StateSnapshot Snapshot;
  Snapshot.LastSeq = Reader.getVarint("covered sequence number");
  Snapshot.Fingerprint = Reader.getFixed64("system fingerprint");
  Snapshot.Solve.Iterations =
      static_cast<int>(Reader.getVarint("solve iterations"));
  Snapshot.Solve.Converged = getBool(Reader, "converged flag") != 0;
  Snapshot.Solve.FinalObjective =
      bitsDouble(Reader.getFixed64("final objective"));
  Snapshot.Solve.NonFiniteSteps =
      static_cast<int>(Reader.getVarint("non-finite steps"));
  Snapshot.Solve.Recoveries =
      static_cast<int>(Reader.getVarint("solver recoveries"));
  Snapshot.Solve.FellBack = getBool(Reader, "fellback flag") != 0;
  Snapshot.Solve.DeadlineExpired =
      getBool(Reader, "deadline-expired flag") != 0;

  uint64_t NumScores = Reader.getCount("score count", 8);
  Snapshot.Solve.X.reserve(NumScores);
  for (uint64_t I = 0; Reader.ok() && I < NumScores; ++I)
    Snapshot.Solve.X.push_back(bitsDouble(Reader.getFixed64("score")));
  Snapshot.FeedbackOpts.AcceptWeight =
      bitsDouble(Reader.getFixed64("accept weight"));
  Snapshot.FeedbackOpts.RejectWeight =
      bitsDouble(Reader.getFixed64("reject weight"));
  Snapshot.FeedbackOpts.SimilarityDecay =
      bitsDouble(Reader.getFixed64("similarity decay"));
  Snapshot.Feedback = getFeedbackEntries(Reader);
  return Snapshot;
}

} // namespace

std::string seldon::service::journalHeader() {
  std::string Out;
  codec::putHeader(Out, JournalFormat);
  return Out;
}

std::string
seldon::service::encodeJournalRecord(const JournalRecord &Record) {
  std::string Out;
  codec::putRecord(Out, encodeRecordPayload(Record));
  return Out;
}

io::IOResult<JournalScan>
seldon::service::scanJournal(std::string_view Bytes) {
  using Result = io::IOResult<JournalScan>;

  // The header is written whole via temp+rename (StateStore resets the
  // journal that way), so a short or wrong header is corruption, not a
  // torn append.
  io::IOResult<size_t> Header = codec::checkHeader(Bytes, JournalFormat);
  if (!Header)
    return Result::failure(std::move(Header.Error));

  JournalScan Scan;
  size_t Off = Header.Value;
  Scan.ValidBytes = Off;
  while (Off < Bytes.size()) {
    // An append is one sequential write, so a record that runs past the
    // end of the file is the torn tail; everything before it stays valid.
    size_t Size = 0;
    io::IOResult<std::string_view> Payload =
        codec::getRecord(Bytes, Off, Size);
    if (Size == 0) {
      Scan.Torn = true;
      break;
    }
    io::IOResult<JournalRecord> Record =
        Payload ? codec::readWhole(Payload.Value, decodeRecordPayload)
                : io::IOResult<JournalRecord>::failure(Payload.Error);
    if (!Record)
      return Result::failure(formatString(
          "journal record %zu at byte %zu: %s (corrupt journal)",
          Scan.Records.size(), Off, Record.Error.c_str()));
    Scan.Records.push_back(std::move(Record.Value));
    Off += Size;
    Scan.ValidBytes = Off;
  }

  return Result::success(std::move(Scan));
}

std::string seldon::service::encodeSnapshot(const StateSnapshot &Snapshot) {
  std::string Payload;
  putVarint(Payload, Snapshot.LastSeq);
  putFixed64(Payload, Snapshot.Fingerprint);
  putVarint(Payload, static_cast<uint64_t>(Snapshot.Solve.Iterations));
  Payload.push_back(Snapshot.Solve.Converged ? 1 : 0);
  putFixed64(Payload, doubleBits(Snapshot.Solve.FinalObjective));
  putVarint(Payload, static_cast<uint64_t>(Snapshot.Solve.NonFiniteSteps));
  putVarint(Payload, static_cast<uint64_t>(Snapshot.Solve.Recoveries));
  Payload.push_back(Snapshot.Solve.FellBack ? 1 : 0);
  Payload.push_back(Snapshot.Solve.DeadlineExpired ? 1 : 0);
  putVarint(Payload, Snapshot.Solve.X.size());
  for (double Score : Snapshot.Solve.X)
    putFixed64(Payload, doubleBits(Score));
  putFixed64(Payload, doubleBits(Snapshot.FeedbackOpts.AcceptWeight));
  putFixed64(Payload, doubleBits(Snapshot.FeedbackOpts.RejectWeight));
  putFixed64(Payload, doubleBits(Snapshot.FeedbackOpts.SimilarityDecay));
  putFeedbackEntries(Payload, Snapshot.Feedback);

  return codec::encodeFrame(SnapshotFormat, Payload);
}

io::IOResult<StateSnapshot>
seldon::service::decodeSnapshot(std::string_view Bytes) {
  return codec::decodeFrame(Bytes, SnapshotFormat, readSnapshot);
}

uint64_t
seldon::service::systemFingerprint(const constraints::ConstraintSystem &Sys,
                                   const propgraph::RepTable &Reps) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  const constraints::VarTable &Vars = Sys.Vars;
  codec::hashValue(Hash, Vars.numVars());
  for (uint32_t V = 0; V < Vars.numVars(); ++V) {
    codec::hashChunk(Hash, Reps.repString(Vars.repOf(V)));
    codec::hashValue(Hash, static_cast<uint64_t>(Vars.roleOf(V)));
  }
  codec::hashValue(Hash, Sys.Constraints.size());
  codec::hashValue(Hash, Sys.NumCandidates);
  return Hash;
}
