//===- service/StateStore.cpp - seldond durable state on disk -------------===//

#include "service/StateStore.h"

#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"
#include "support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <set>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

using namespace seldon;
using namespace seldon::service;

namespace fs = std::filesystem;

namespace {

constexpr const char *JournalName = "state.wal";
constexpr const char *SnapshotSuffix = ".ssn";
constexpr const char *JournalSuffix = ".wal";

/// Parses "state-<digits>.ssn" into its sequence number.
bool parseSnapshotName(const std::string &Name, uint64_t &Seq) {
  constexpr std::string_view Prefix = "state-";
  if (Name.substr(0, Prefix.size()) != Prefix)
    return false;
  size_t DigitsEnd = Name.find_first_not_of(
      "0123456789", Prefix.size());
  if (DigitsEnd == Prefix.size() || DigitsEnd == std::string::npos ||
      Name.substr(DigitsEnd) != SnapshotSuffix)
    return false;
  Seq = std::strtoull(Name.substr(Prefix.size()).c_str(), nullptr, 10);
  return true;
}

} // namespace

StateStore::StateStore(std::string Dir) : Dir(std::move(Dir)) {
  // Opening sweeps the temps of crashed publishes, as the caches do.
  io::IOResult<size_t> Opened = io::openDirectory(
      this->Dir, "state", {SnapshotSuffix, JournalSuffix});
  DirError = Opened.Error;
  Stats.StaleTempsRemoved = Opened.Value;
  if (!valid())
    return;

  std::string Error;
  std::error_code Ec;
  if (!fs::exists(journalPath(), Ec)) {
    // A fresh journal is published whole (header via temp + rename), so
    // scanJournal() can treat a short header as corruption, never a torn
    // append.
    if (!publish(journalPath(), journalHeader(), nullptr, Error)) {
      DirError = formatString("cannot create journal: %s", Error.c_str());
      return;
    }
  }
  if (!openJournal(Error))
    DirError = Error;
}

StateStore::~StateStore() { closeJournal(); }

std::string StateStore::journalPath() const {
  return Dir + "/" + JournalName;
}

std::string StateStore::snapshotPath(uint64_t Seq) const {
  return formatString("%s/state-%llu%s", Dir.c_str(),
                      static_cast<unsigned long long>(Seq),
                      SnapshotSuffix);
}

bool StateStore::openJournal(std::string &Error) {
  closeJournal();
  JournalFd = ::open(journalPath().c_str(), O_WRONLY | O_APPEND, 0644);
  if (JournalFd < 0) {
    Error = formatString("cannot open journal %s: %s",
                         journalPath().c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

void StateStore::closeJournal() {
  if (JournalFd >= 0) {
    ::close(JournalFd);
    JournalFd = -1;
  }
}

bool StateStore::publish(const std::string &Path, const std::string &Bytes,
                         const std::function<void()> &BeforeRename,
                         std::string &Error) {
  io::IOResult<size_t> Written =
      io::publishFile(Path, Bytes, /*Fsync=*/true, [&] {
        ++Stats.Fsyncs;
        if (BeforeRename)
          BeforeRename();
      });
  if (!Written)
    Error = Written.Error;
  return Written.ok();
}

bool StateStore::appendRecord(const JournalRecord &Record,
                              std::string &Error) {
  if (!valid() || JournalFd < 0) {
    Error = DirError.empty() ? "journal is not open" : DirError;
    return false;
  }
  std::string Frame = encodeJournalRecord(Record);

  // The torn-tail crash: land a strict prefix of the frame, then die —
  // exactly what a power cut mid-append leaves behind.
  if (fault::enabled() &&
      fault::crashArmed(fault::Point::JournalAppend, Record.Seq)) {
    (void)io::appendAndSync(
        JournalFd, std::string_view(Frame).substr(0, Frame.size() / 2));
    fault::crashExit(fault::Point::JournalAppend, Record.Seq);
  }

  io::IOResult<size_t> Appended = io::appendAndSync(JournalFd, Frame, [&] {
    fault::maybeCrash(fault::Point::JournalFsync, Record.Seq);
  });
  if (!Appended) {
    Error = "journal " + Appended.Error;
    return false;
  }
  ++Stats.Fsyncs;
  ++Stats.Appends;
  Stats.BytesAppended += Frame.size();
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("journal.appends").add(1);
    Reg.counter("journal.bytes").add(Frame.size());
    Reg.counter("journal.fsyncs").add(1);
  }
  fault::maybeCrash(fault::Point::JournalSynced, Record.Seq);
  return true;
}

bool StateStore::writeSnapshot(const StateSnapshot &Snapshot,
                               std::string &Error) {
  if (!valid()) {
    Error = DirError;
    return false;
  }
  std::string Bytes = encodeSnapshot(Snapshot);
  if (!publish(snapshotPath(Snapshot.LastSeq), Bytes,
               [&] {
                 fault::maybeCrash(fault::Point::SnapshotWrite,
                                   Snapshot.LastSeq);
               },
               Error))
    return false;
  ++Stats.Snapshots;
  Stats.SnapshotBytes += Bytes.size();
  fault::maybeCrash(fault::Point::SnapshotRename, Snapshot.LastSeq);

  // Prune superseded snapshots: recovery prefers the newest, so older
  // ones are dead weight the moment the rename lands.
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    uint64_t Seq = 0;
    if (parseSnapshotName(It->path().filename().string(), Seq) &&
        Seq < Snapshot.LastSeq) {
      std::error_code RmEc;
      fs::remove(It->path(), RmEc);
    }
  }

  // Compact: publish a fresh, empty journal. A crash before the rename
  // leaves the old journal whose records are all <= LastSeq — replay
  // skips them, so compaction is crash-safe at every instant.
  closeJournal();
  std::string ResetError;
  bool Reset = publish(
      journalPath(), journalHeader(),
      [&] { fault::maybeCrash(fault::Point::JournalReset, Snapshot.LastSeq); },
      ResetError);
  if (!Reset) {
    Error = formatString("journal compaction failed: %s",
                         ResetError.c_str());
    // The old journal is still valid; reopen and keep appending to it.
    std::string ReopenError;
    (void)openJournal(ReopenError);
    return false;
  }
  ++Stats.Compactions;
  if (!openJournal(Error))
    return false;

  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("snapshot.writes").add(1);
    Reg.counter("snapshot.bytes").add(Bytes.size());
    Reg.counter("journal.compactions").add(1);
  }
  return true;
}

io::IOResult<RecoveredState> StateStore::recover() {
  using Result = io::IOResult<RecoveredState>;
  if (!valid())
    return Result::failure(DirError);
  Timer Recovery;
  RecoveredState State;

  // Newest valid snapshot wins; corrupt ones are evicted and the
  // next-older tried — a bad snapshot degrades recovery, never fails it.
  std::vector<std::pair<uint64_t, std::string>> Snapshots;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    uint64_t Seq = 0;
    if (parseSnapshotName(It->path().filename().string(), Seq))
      Snapshots.emplace_back(Seq, It->path().string());
  }
  std::sort(Snapshots.begin(), Snapshots.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  for (const auto &[Seq, Path] : Snapshots) {
    io::IOResult<std::string> Bytes = io::readFile(Path);
    if (!Bytes) {
      Stats.Errors.push_back(formatString(
          "snapshot %llu: %s", static_cast<unsigned long long>(Seq),
          Bytes.Error.c_str()));
      continue;
    }
    io::IOResult<StateSnapshot> Decoded = decodeSnapshot(Bytes.Value);
    if (!Decoded) {
      Stats.Errors.push_back(formatString(
          "evicted snapshot %llu: %s",
          static_cast<unsigned long long>(Seq), Decoded.Error.c_str()));
      ++Stats.EvictedSnapshots;
      std::error_code RmEc;
      fs::remove(Path, RmEc);
      continue;
    }
    State.HasSnapshot = true;
    State.Snapshot = std::move(Decoded.Value);
    break;
  }

  // Scan the journal. Torn tail: truncate and keep the prefix. Interior
  // corruption: evict the whole journal — the snapshot still restores
  // everything it covers, and starting a fresh journal beats trusting
  // bytes that failed their checksum.
  io::IOResult<std::string> Journal = io::readFile(journalPath());
  if (!Journal)
    return Result::failure(std::move(Journal.Error));
  io::IOResult<JournalScan> Scan = scanJournal(Journal.Value);
  std::vector<JournalRecord> Records;
  if (!Scan) {
    Stats.Errors.push_back(
        formatString("evicted journal: %s", Scan.Error.c_str()));
    ++Stats.EvictedJournals;
    closeJournal();
    std::string Error;
    if (!publish(journalPath(), journalHeader(), nullptr, Error) ||
        !openJournal(Error))
      return Result::failure(
          formatString("cannot rebuild journal: %s", Error.c_str()));
  } else {
    Records = std::move(Scan.Value.Records);
    if (Scan.Value.Torn) {
      uint64_t Dropped = Journal.Value.size() - Scan.Value.ValidBytes;
      Stats.TruncatedTailBytes += Dropped;
      Stats.Errors.push_back(formatString(
          "truncated torn journal tail: dropped %llu byte(s), kept %zu "
          "record(s)",
          static_cast<unsigned long long>(Dropped), Records.size()));
      closeJournal();
      if (::truncate(journalPath().c_str(),
                     static_cast<off_t>(Scan.Value.ValidBytes)) != 0)
        return Result::failure(formatString(
            "cannot truncate torn journal: %s", std::strerror(errno)));
      std::string Error;
      if (!openJournal(Error))
        return Result::failure(Error);
    }
  }

  // Replay suffix: records above the snapshot's horizon, minus aborts
  // and the records they void.
  uint64_t Horizon = State.HasSnapshot ? State.Snapshot.LastSeq : 0;
  std::set<uint64_t> Aborted;
  for (const JournalRecord &R : Records)
    if (R.Op == JournalOp::Abort)
      Aborted.insert(R.AbortedSeq);
  for (JournalRecord &R : Records)
    if (R.Op != JournalOp::Abort && R.Seq > Horizon &&
        Aborted.count(R.Seq) == 0)
      State.Replay.push_back(std::move(R));
  Stats.ReplayedRecords += State.Replay.size();
  Stats.RecoverySeconds = Recovery.seconds();

  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("journal.replayed").add(State.Replay.size());
    Reg.gauge("recovery.seconds").set(Stats.RecoverySeconds);
    Reg.gauge("recovery.snapshot_found")
        .set(State.HasSnapshot ? 1.0 : 0.0);
  }

  return Result::success(std::move(State));
}
