//===- service/StateCodec.h - Durable-state binary formats -------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two binary formats of seldond's durability layer (see
/// service/StateStore.h): the write-ahead journal and the state snapshot.
/// Both use the shared frame of support/BinaryCodec.h — strict
/// ByteReader decoding, io::IOResult errors, never a partially-populated
/// value.
///
/// Journal file ("state.wal"): the frame header ("SWAL", version), then
/// one checksummed record (fixed64 FNV-1a-64, varint length, payload) per
/// journaled op.
///
/// Each record payload is varint(seq) byte(op) plus the op's parameters —
/// everything needed to re-execute the mutating request deterministically
/// on replay. Because every append is one sequential write, a crash can
/// only ever leave a *prefix* of the final frame: scanJournal() therefore
/// classifies an incomplete trailing frame as a torn tail (recoverable by
/// truncation, keeping every complete record before it) and any *complete*
/// frame that fails its checksum or structural decode as interior
/// corruption (unrecoverable — the caller evicts the journal).
///
/// Snapshot file ("state-<seq>.ssn"): one frame ("SSNP") whose payload
/// carries the journal sequence number it covers, a fingerprint of the
/// constraint system it was solved against, the served solver result with
/// the raw X vector as fixed64 bit patterns (so a restored spec is
/// byte-identical, not round-tripped through decimal), and the cumulative
/// feedback verdict set.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SERVICE_STATECODEC_H
#define SELDON_SERVICE_STATECODEC_H

#include "constraints/ConstraintSystem.h"
#include "constraints/Feedback.h"
#include "propgraph/RepTable.h"
#include "solver/Problem.h"
#include "support/IOResult.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace service {

/// Bump on any layout change; decoders reject other versions.
constexpr uint32_t JournalCodecVersion = 1;
constexpr uint32_t SnapshotCodecVersion = 1;

/// The mutating operations the journal records.
enum class JournalOp : uint8_t {
  Feedback = 0, ///< A `feedback` request: verdict delta + solve knobs.
  Learn = 1,    ///< A `learn` request: re-solve (optionally reload) knobs.
  Abort = 2,    ///< The op with AbortedSeq failed after journaling; skip it.
};

/// One journal record: a sequence number plus the full parameter set of
/// the mutating request, sufficient to re-execute it on replay.
struct JournalRecord {
  uint64_t Seq = 0;
  JournalOp Op = JournalOp::Feedback;

  // Feedback op: the verdict delta and its weighting.
  std::vector<constraints::FeedbackEntry> Entries;
  constraints::FeedbackOptions FeedbackOpts;

  // Solve knobs shared by the feedback and learn ops.
  uint64_t Iters = 0;
  bool WarmStart = false;

  // Learn op.
  bool Reload = false;

  // Abort op: the journaled sequence number that must not be replayed.
  uint64_t AbortedSeq = 0;
};

/// The journal file header ("SWAL" + version) a fresh journal starts with.
std::string journalHeader();

/// Encodes \p Record as one framed journal entry (checksum + length +
/// payload), ready to append after journalHeader().
std::string encodeJournalRecord(const JournalRecord &Record);

/// What scanning a journal file found.
struct JournalScan {
  std::vector<JournalRecord> Records;
  /// Byte length of the valid prefix (header + complete frames). When
  /// Torn, truncating the file to this length removes the torn tail.
  size_t ValidBytes = 0;
  /// The final frame was incomplete (a crashed append); Records still
  /// holds every complete record before it.
  bool Torn = false;
};

/// Scans \p Bytes as a journal file. A torn *trailing* frame yields
/// success with Torn set; a bad header, version mismatch, checksum
/// failure, or structural decode failure of a complete frame is interior
/// corruption and yields a descriptive error with an empty value.
io::IOResult<JournalScan> scanJournal(std::string_view Bytes);

/// Everything a snapshot persists.
struct StateSnapshot {
  /// The highest journal sequence number whose effect the snapshot
  /// includes; replay skips records at or below it.
  uint64_t LastSeq = 0;
  /// systemFingerprint() of the constraint system Solve.X solves, checked
  /// against the rebuilt system before the X vector is installed.
  uint64_t Fingerprint = 0;
  /// The served solver result, X carried as exact bit patterns.
  solver::SolveResult Solve;
  /// The feedback weighting the solve that produced Solve ran with (the
  /// last feedback op's per-request weights, or the daemon default).
  /// Restoring must re-apply the evidence rows with these exact values
  /// for the served system — and query responses — to be byte-identical.
  constraints::FeedbackOptions FeedbackOpts;
  /// The cumulative feedback verdict set at LastSeq.
  std::vector<constraints::FeedbackEntry> Feedback;
};

/// Encodes \p Snapshot as one self-contained checksummed file image.
std::string encodeSnapshot(const StateSnapshot &Snapshot);

/// Decodes a snapshot file image; any truncation or corruption yields a
/// descriptive error with an empty value.
io::IOResult<StateSnapshot> decodeSnapshot(std::string_view Bytes);

/// Content fingerprint of the constraint system a solve ran against:
/// variable count, each variable's (representation string, role) in
/// variable order, constraint-row count, and candidate count. Two runs
/// over the same corpus/seed produce the same fingerprint at any --jobs;
/// a changed corpus (different variables) changes it, which recovery uses
/// to detect that a snapshot's X vector no longer matches the system.
uint64_t systemFingerprint(const constraints::ConstraintSystem &Sys,
                           const propgraph::RepTable &Reps);

} // namespace service
} // namespace seldon

#endif // SELDON_SERVICE_STATECODEC_H
