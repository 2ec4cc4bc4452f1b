//===- service/StateStore.h - seldond durable state on disk ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk durability layer behind `seldond --state-dir` (formats in
/// service/StateCodec.h). One directory holds:
///
///   state.wal            — the append-only write-ahead journal
///   state-<seq>.ssn      — snapshots, newest sequence number wins
///   *.tmp<digits>        — in-flight io::publishFile temps (crash
///                          leftovers are swept on open, as the caches
///                          sweep theirs)
///
/// Protocol, enforced by Service:
///
///   1. Every accepted mutating op (feedback, learn) is appended to the
///      journal and fsynced *before* its re-solve runs — a crash at any
///      later point replays the op from the journal (at-least-once).
///   2. An op that fails after journaling appends an abort record so
///      replay skips it.
///   3. After every applied op (and on orderly shutdown), the served
///      state is snapshotted via temp + rename and the journal is
///      compacted: a fresh journal is published (also temp + rename), and
///      older snapshots are pruned. Replay skips records at or below the
///      snapshot's sequence number, so a crash anywhere between those
///      steps recovers exactly.
///
/// recover() never yields partial state: a corrupt snapshot is evicted
/// and the next-older one tried; a torn journal tail is truncated away; a
/// journal with interior corruption is evicted whole (the surviving
/// snapshot still restores everything it covers).
///
/// Process-crash fault points (support/FaultInjection, `crash:` arms)
/// sit on every boundary above, keyed by the record's sequence number —
/// the recovery harness kills the daemon at each one and asserts
/// byte-identical recovery.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SERVICE_STATESTORE_H
#define SELDON_SERVICE_STATESTORE_H

#include "service/StateCodec.h"
#include "support/IOResult.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace seldon {
namespace service {

/// Durability counters, exported as journal.*/snapshot.* metrics and in
/// the status op's "durability" section.
struct DurabilityStats {
  uint64_t Appends = 0;       ///< Journal records appended.
  uint64_t Fsyncs = 0;        ///< fsync calls (journal + snapshot).
  uint64_t BytesAppended = 0; ///< Journal bytes appended.
  uint64_t Snapshots = 0;     ///< Snapshots published.
  uint64_t SnapshotBytes = 0; ///< Snapshot bytes written.
  uint64_t Compactions = 0;   ///< Journal resets after a snapshot.
  uint64_t ReplayedRecords = 0;  ///< Journal records replayed on recovery.
  uint64_t TruncatedTailBytes = 0; ///< Torn-tail bytes dropped on recovery.
  uint64_t EvictedSnapshots = 0;   ///< Corrupt snapshots deleted.
  uint64_t EvictedJournals = 0;    ///< Corrupt journals deleted.
  uint64_t StaleTempsRemoved = 0;  ///< Crash-leaked temps swept on open.
  double RecoverySeconds = 0.0;    ///< Wall time of the last recover().
  /// Descriptive messages of every eviction/degradation, in order.
  std::vector<std::string> Errors;
};

/// What recover() reconstructed from the state directory.
struct RecoveredState {
  /// A valid snapshot was found; Snapshot then carries the newest one.
  bool HasSnapshot = false;
  StateSnapshot Snapshot;
  /// Journal records to re-execute, in order: seq strictly above the
  /// snapshot's (0 without a snapshot), aborted records already dropped.
  std::vector<JournalRecord> Replay;
};

/// The state directory handle. Construction creates the directory,
/// sweeps crash-leaked temps, and opens (creating if absent) the
/// journal; an unusable directory leaves valid() false with a
/// descriptive error — the caller refuses to start rather than running
/// without durability it was asked for.
class StateStore {
public:
  explicit StateStore(std::string Dir);
  ~StateStore();

  StateStore(const StateStore &) = delete;
  StateStore &operator=(const StateStore &) = delete;

  bool valid() const { return DirError.empty(); }
  const std::string &error() const { return DirError; }
  const std::string &dir() const { return Dir; }

  /// The journal file path (inside dir()).
  std::string journalPath() const;
  /// The snapshot path for covered sequence number \p Seq.
  std::string snapshotPath(uint64_t Seq) const;

  /// Reconstructs the durable state: newest valid snapshot (corrupt ones
  /// evicted, next-older tried) plus the filtered journal replay suffix.
  /// A torn journal tail is truncated in place; interior journal
  /// corruption evicts the journal (recorded in stats().Errors). Fails
  /// only on unusable IO (unreadable directory).
  io::IOResult<RecoveredState> recover();

  /// Appends \p Record to the journal and fsyncs it. On failure the
  /// record is not durable and the caller must fail the op. Crash points:
  /// journal-append (torn write), journal-fsync, journal-synced, keyed by
  /// Record.Seq.
  bool appendRecord(const JournalRecord &Record, std::string &Error);

  /// Publishes \p Snapshot atomically (temp + fsync + rename), prunes
  /// older snapshots, and compacts the journal to a fresh header. Crash
  /// points: snapshot-write, snapshot-rename, journal-reset, keyed by
  /// Snapshot.LastSeq.
  bool writeSnapshot(const StateSnapshot &Snapshot, std::string &Error);

  /// Lifetime counters (monotonic snapshot).
  DurabilityStats stats() const { return Stats; }

private:
  bool openJournal(std::string &Error);
  void closeJournal();
  /// Publishes \p Bytes at \p Path with io::publishFile's fsyncs,
  /// running \p BeforeRename (a crash point) between the fsync and the
  /// rename.
  bool publish(const std::string &Path, const std::string &Bytes,
               const std::function<void()> &BeforeRename,
               std::string &Error);

  std::string Dir;
  std::string DirError;
  int JournalFd = -1;
  DurabilityStats Stats;
};

} // namespace service
} // namespace seldon

#endif // SELDON_SERVICE_STATESTORE_H
