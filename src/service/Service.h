//===- service/Service.h - Warm inference service ----------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request-serving core of `seldond`: loads a corpus once through the
/// staged infer::Session (so the propagation graph, constraint system, and
/// learned specification stay warm in memory), then answers protocol
/// requests against that state without re-parsing anything.
///
/// Operations (all v1, see docs/architecture.md "The inference service"):
///
///   status    corpus/system/spec/health counters, request + parse metrics
///   query     per-(representation, role) score with supporting
///             constraints — renders through service::QueryResult, so the
///             answer is byte-identical to `seldon explain --json`
///   learn     re-solve with the warm graph and constraint system
///             (optionally warm-started from the current spec); swaps the
///             served specification atomically. With "reload": true, the
///             corpus is re-read from the configured directories into a
///             fresh session first — with the graph + shard caches
///             enabled, only changed projects re-parse and re-extract, so
///             an incremental re-learn costs O(delta) + solve
///   feedback  merge accept/reject verdicts on (representation, role)
///             pairs into the service's cumulative feedback set, re-solve
///             with the feedback-weighted constraint system (warm-started
///             from the served spec by default), and swap the served
///             specification atomically. Verdicts accumulate across
///             requests; an accepted pair raises evidence for the pair
///             (and, decayed, for representations sharing backoff
///             prefixes), a rejected pair lowers it. See
///             constraints/Feedback.h
///   taint     analyze a payload project (inline sources or a directory)
///             against the warm seed + learned specification
///   shutdown  drain: every later request gets a `shutting-down` error
///
/// Threading: handle() is safe to call from any number of threads. Reads
/// (status/query/taint) share the warm state under a shared_mutex;
/// learn/feedback take it exclusively and are the only writers. Every new
/// warm state is installed by publishLocked(), which also rebuilds the
/// state's var→rows index, so a query costs O(rows of its variable).
/// Admission is a counted gate sized by Options::MaxInFlight — the
/// transport admits a request before handing it to the ThreadPool and
/// releases it after the response is written, so a flood degrades into
/// `overloaded` errors instead of an unbounded queue.
///
/// Durability: with Options::StateDir set, every accepted mutating op
/// (feedback, learn) is journaled and fsynced *before* its re-solve runs,
/// the served state is snapshotted (and the journal compacted) after every
/// applied op and at persist(), and start() recovers the exact pre-crash
/// state: newest valid snapshot installed through Session::restoreSolve
/// (byte-identical scores and health, no re-optimization), then the
/// journal suffix re-executed through the same code path live requests
/// use. See service/StateStore.h for the on-disk protocol.
///
/// Deadlines: each request gets a cooperative support/Deadline (server
/// default, overridable per request via "deadline_s"). The Session's own
/// run deadline stays disarmed — Session::armDeadline is one-shot, which
/// is wrong for a daemon — so learn and feedback budgets flow through
/// SolveOptions::ShouldStop and query/taint poll at stage boundaries. An
/// expiry before the solve is a structured `deadline` error, and one
/// during it publishes a `degraded` result that describes that solve
/// only — never a hang; a handler that throws is an `internal` error,
/// never a crash (the pipeline's own failure discipline; fault injection
/// points inside the pipeline surface the same way).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SERVICE_SERVICE_H
#define SELDON_SERVICE_SERVICE_H

#include "constraints/Explain.h"
#include "infer/Pipeline.h"
#include "infer/RunConfig.h"
#include "pysem/Project.h"
#include "service/Protocol.h"
#include "service/StateStore.h"
#include "spec/SeedSpec.h"
#include "support/Deadline.h"

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

namespace seldon {
namespace service {

/// The long-lived inference service behind `seldond`.
class Service {
public:
  /// The run set-up `seldon` shares (seed, corpus, caches, iterations,
  /// cutoff, jobs, strict, and the threshold used for spec sizing in
  /// status and as the `taint` default), plus the daemon's own knobs.
  struct Options : infer::RunConfig {
    /// The evaluator every solve runs on; it has one value. Kept for the
    /// end-to-end benchmark, which sets it.
    solver::SolverBackend Backend = solver::SolverBackend::Compiled;
    /// Default per-request wall-clock budget (0 = unlimited). Requests
    /// may override with a "deadline_s" member.
    double RequestDeadlineSeconds = 0.0;
    /// Admission slots: requests admitted beyond this count are answered
    /// with `overloaded`.
    size_t MaxInFlight = 64;
    /// Durable-state directory (empty = no durability). With it, every
    /// accepted mutating op is journaled + fsynced before its re-solve,
    /// the served state is snapshotted after it, and start() recovers the
    /// exact pre-crash state from the newest snapshot plus the journal
    /// suffix — at most the op in flight at the crash. See
    /// service/StateStore.h.
    std::string StateDir;
  };

  explicit Service(Options Opts);
  ~Service();

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Loads the seed and corpus, builds the graph (through the cache when
  /// configured), generates constraints, and solves — the expensive cold
  /// start the daemon pays exactly once. Returns false with a diagnostic
  /// in \p Error on failure.
  bool start(std::string &Error);

  /// Handles one request line (newline already stripped) and returns the
  /// response line (no trailing newline). Never throws. Thread-safe.
  std::string handle(const std::string &Line);

  /// Claims an admission slot; false when MaxInFlight are already held.
  bool tryAdmit();
  /// Returns a slot claimed by tryAdmit().
  void release();

  /// Admission + handle() + release in one call — the serial (`--once`)
  /// path and the simplest correct usage for one-off callers.
  std::string serve(const std::string &Line);

  /// The `overloaded` response for \p Line (salvages the request id so
  /// the caller can correlate).
  std::string overloadedResponse(const std::string &Line) const;

  /// True once a `shutdown` request was accepted.
  bool shuttingDown() const {
    return ShuttingDown.load(std::memory_order_acquire);
  }

  const Options &options() const { return Opts; }

  /// Writes a final snapshot (and compacts the journal) when durability
  /// is enabled and state changed since the last snapshot — the orderly
  /// half of shutdown, called by seldond after the serve loop drains.
  /// No-op without --state-dir. Thread-safe.
  void persist();

  /// The durable store (test hook); null without --state-dir.
  const StateStore *stateStore() const { return Durable.get(); }

  /// The warm pipeline result (test hook). Not synchronized against a
  /// concurrent `learn`; call only when no requests are in flight.
  const infer::PipelineResult &warm() const { return Warm; }

private:
  std::string dispatch(const Request &Req, Deadline &D);
  /// The configured corpus in \p Corpus and a fresh Session over it,
  /// through the shared run set-up (infer/RunConfig.h), solving against
  /// the cumulative feedback set. Prints the loader's warnings. Null, with
  /// the diagnostic in \p Error, when a directory cannot be loaded; an
  /// unusable cache directory sets \p Error beside an all-miss session.
  std::unique_ptr<infer::Session>
  openSession(std::vector<pysem::Project> &Corpus, std::string &Error);
  std::string opStatus();
  std::string opQuery(const Request &Req, Deadline &D);
  std::string opLearn(const Request &Req, Deadline &D);
  std::string opFeedback(const Request &Req, Deadline &D);
  std::string opTaint(const Request &Req, Deadline &D);

  /// Executes a feedback/learn op from its journal-record form — the one
  /// code path shared by live requests and recovery replay, so a replayed
  /// op reproduces the original solve exactly. Caller holds WarmMutex
  /// exclusively; \p D may be null (replay runs without a deadline).
  void applyFeedbackRecord(const JournalRecord &Rec, Deadline *D);
  void applyLearnRecord(const JournalRecord &Rec, Deadline *D);
  /// The solve both ops share: \p S solved with \p Rec's iteration budget
  /// and warm start (from the served spec), the feedback op's weighting,
  /// and \p D (may be null) as the stop condition. \p S's options() are
  /// restored on return or throw.
  infer::PipelineResult solveRecord(infer::Session &S,
                                    const JournalRecord &Rec, Deadline *D);
  /// Assigns the next sequence number and appends \p Rec to the journal
  /// (fsynced). Throws OpError(Internal) when the record cannot be made
  /// durable — the op must fail rather than mutate unjournaled state.
  /// No-op without durability. Caller holds WarmMutex exclusively.
  void journalAppend(JournalRecord &Rec);
  /// Best-effort abort record for a journaled op that failed to apply.
  void journalAbort(uint64_t Seq);
  /// Installs \p R as the served state together with its var→rows index.
  /// Caller holds WarmMutex exclusively (or is single-threaded startup).
  void publishLocked(infer::PipelineResult R);
  /// Publishes a snapshot of the served state and compacts the journal.
  /// No-op without durability. Caller holds WarmMutex exclusively (or is
  /// single-threaded startup).
  void takeSnapshotLocked();
  /// Recovers durable state after the initial generateConstraints():
  /// installs the newest valid snapshot (or degrades to a cold solve) and
  /// re-executes the journal replay suffix. Fills Warm. False with a
  /// diagnostic in \p Error on unrecoverable IO.
  bool recoverDurableState(std::string &Error);

  Options Opts;
  spec::SeedSpec Seed;
  std::vector<pysem::Project> Corpus;
  std::unique_ptr<infer::Session> Session;
  /// Cumulative accept/reject verdicts merged by `feedback` requests.
  /// The session's PipelineOptions::Feedback points here, so every solve
  /// (initial, learn, feedback) reweights with the same set; while it is
  /// empty the pipeline's passive path is byte-identical. Guarded by
  /// WarmMutex (only `feedback` mutates it, exclusively).
  constraints::FeedbackSet Feedback;

  /// Warm state served to query/taint/status; guarded by WarmMutex
  /// (shared for reads, exclusive for learn). WarmRows indexes
  /// Warm.System's rows by variable; publishLocked() keeps the two in step.
  mutable std::shared_mutex WarmMutex;
  infer::PipelineResult Warm;
  constraints::RowIndex WarmRows;
  bool Started = false;

  /// Durable store (null without --state-dir) and its bookkeeping, all
  /// guarded by WarmMutex exclusively (mutating ops are the only users).
  std::unique_ptr<StateStore> Durable;
  /// Next journal sequence number to assign.
  uint64_t NextSeq = 1;
  /// Sequence number covered by the last snapshot (0 = none yet).
  uint64_t LastSnapshotSeq = 0;
  bool EverSnapshotted = false;
  /// systemFingerprint() of Session's system, computed once per session
  /// (at start and after a reload's generation) when durability is on.
  uint64_t SessionFingerprint = 0;
  /// The FeedbackOptions the solve that produced Warm applied its
  /// evidence rows with; snapshotted so recovery re-applies identically.
  constraints::FeedbackOptions WarmFO;

  std::atomic<size_t> Admitted{0};
  std::atomic<uint64_t> Handled{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<bool> ShuttingDown{false};
};

} // namespace service
} // namespace seldon

#endif // SELDON_SERVICE_SERVICE_H
