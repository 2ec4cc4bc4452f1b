//===- service/Service.cpp - Warm inference service -----------------------===//

#include "service/Service.h"

#include "propgraph/GraphBuilder.h"
#include "pysem/ProjectLoader.h"
#include "service/FeedbackJson.h"
#include "service/QueryResult.h"
#include "spec/SpecIO.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"
#include "taint/JsonExport.h"
#include "taint/ReportRenderer.h"
#include "taint/TaintAnalyzer.h"

#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

using namespace seldon;
using namespace seldon::service;

namespace {

/// A structured operation failure; handle() turns it into an error
/// response with the carried code.
class OpError : public std::runtime_error {
public:
  OpError(ErrorCode Code, const std::string &Message)
      : std::runtime_error(Message), Code(Code) {}
  ErrorCode Code;
};

[[noreturn]] void badRequest(const std::string &Message) {
  throw OpError(ErrorCode::BadRequest, Message);
}

void checkDeadline(const Deadline &D, const char *Stage) {
  if (D.expired())
    throw DeadlineError(
        formatString("request deadline expired before %s", Stage));
}

/// Reads an optional positive-integer parameter; \p Fallback when absent.
long readIntParam(const Request &Req, const char *Name, long Fallback,
                  long Min, long Max) {
  const JsonValue *V = Req.Params.get(Name);
  if (!V)
    return Fallback;
  if (!V->isNumber() ||
      std::floor(V->numberValue()) != V->numberValue() ||
      V->numberValue() < static_cast<double>(Min) ||
      V->numberValue() > static_cast<double>(Max))
    badRequest(formatString("\"%s\" must be an integer in [%ld, %ld]", Name,
                            Min, Max));
  return static_cast<long>(V->numberValue());
}

bool readBoolParam(const Request &Req, const char *Name, bool Fallback) {
  const JsonValue *V = Req.Params.get(Name);
  if (!V)
    return Fallback;
  if (!V->isBool())
    badRequest(formatString("\"%s\" must be a boolean", Name));
  return V->boolValue();
}

} // namespace

Service::Service(Options Opts) : Opts(std::move(Opts)) {}

Service::~Service() = default;

bool Service::start(std::string &Error) {
  if (Opts.SeedFile.empty()) {
    Seed = spec::SeedSpec::parse(spec::paperSeedSpecText());
  } else {
    spec::IOResult<spec::SeedSpec> Loaded =
        spec::loadSeedSpec(Opts.SeedFile);
    for (const std::string &W : Loaded.Warnings)
      std::fprintf(stderr, "seed: %s\n", W.c_str());
    if (!Loaded) {
      Error = Loaded.Error;
      return false;
    }
    Seed = std::move(Loaded.Value);
  }

  if (Opts.CorpusDirs.empty()) {
    Error = "no corpus directories to serve";
    return false;
  }
  if (!loadCorpus(Corpus, Error))
    return false;

  Session = makeSession();
  if (!Opts.CacheDir.empty() && !Session->graphCache()->valid()) {
    Error = Session->graphCache()->error();
    return false;
  }
  if (!Opts.ShardCacheDir.empty() && !Session->shardCache()->valid()) {
    Error = Session->shardCache()->error();
    return false;
  }
  if (!Opts.StateDir.empty()) {
    Durable = std::make_unique<StateStore>(Opts.StateDir);
    if (!Durable->valid()) {
      // Refuse to start rather than silently running without the
      // durability the operator asked for.
      Error = Durable->error();
      return false;
    }
  }

  Session->addProjects(Corpus);
  try {
    Session->generateConstraints(Seed);
    if (Durable) {
      if (!recoverDurableState(Error))
        return false;
    } else {
      publishLocked(Session->solve());
    }
  } catch (const std::exception &E) {
    Error = E.what();
    return false;
  }
  Started = true;
  return true;
}

bool Service::recoverDurableState(std::string &Error) {
  io::IOResult<RecoveredState> Recovered = Durable->recover();
  if (!Recovered) {
    Error = Recovered.Error;
    return false;
  }
  RecoveredState &RS = Recovered.Value;
  for (const std::string &W : Durable->stats().Errors)
    std::fprintf(stderr, "state: %s\n", W.c_str());

  bool Restored = false;
  if (RS.HasSnapshot) {
    // Verdicts first: restoreSolve applies the session's feedback
    // pointer (which is this set) to its System copy, so the restored
    // Warm carries the same evidence rows the pre-crash one did.
    for (const constraints::FeedbackEntry &E : RS.Snapshot.Feedback) {
      if (E.Accepted)
        Feedback.accept(E.Rep, E.R);
      else
        Feedback.reject(E.Rep, E.R);
    }
    WarmFO = RS.Snapshot.FeedbackOpts;
    uint64_t Fingerprint =
        systemFingerprint(Session->system(), Session->reps());
    if (Fingerprint == RS.Snapshot.Fingerprint) {
      infer::ScopedOptions Scope(*Session);
      Session->options().FeedbackOpts = WarmFO;
      infer::PipelineResult Result;
      Restored = Session->restoreSolve(RS.Snapshot.Solve, Result);
      if (Restored)
        publishLocked(std::move(Result));
    }
    if (!Restored)
      std::fprintf(stderr,
                   "state: snapshot %llu no longer matches the corpus "
                   "(fingerprint/shape changed); restoring verdicts and "
                   "re-solving cold\n",
                   static_cast<unsigned long long>(RS.Snapshot.LastSeq));
    NextSeq = RS.Snapshot.LastSeq + 1;
  }
  if (!Restored) {
    // No (usable) snapshot: cold solve, with whatever verdicts were
    // restored above — the irreplaceable part of the state survives even
    // when the corpus changed out from under the snapshot.
    publishLocked(Session->solve());
    WarmFO = Session->options().FeedbackOpts;
  }

  // Re-execute the journal suffix through the same code path live
  // requests use; the state after replay is exactly the pre-crash state.
  for (const JournalRecord &R : RS.Replay) {
    NextSeq = std::max(NextSeq, R.Seq + 1);
    try {
      if (R.Op == JournalOp::Feedback)
        applyFeedbackRecord(R, nullptr);
      else
        applyLearnRecord(R, nullptr);
    } catch (const std::exception &E) {
      // A record that fails to apply is treated as aborted — the same
      // outcome its request would have had — instead of bricking the
      // daemon behind a permanently unreplayable journal.
      std::fprintf(stderr,
                   "state: skipping journal record %llu (replay failed: "
                   "%s)\n",
                   static_cast<unsigned long long>(R.Seq), E.what());
    }
  }

  // Baseline snapshot: everything recovered is now covered by one
  // snapshot and the journal is compact, so the next crash replays at
  // most the op in flight.
  takeSnapshotLocked();
  return true;
}

void Service::persist() {
  std::unique_lock<std::shared_mutex> Lock(WarmMutex);
  if (!Durable || !Started)
    return;
  if (EverSnapshotted && LastSnapshotSeq == NextSeq - 1)
    return; // Nothing changed since the last snapshot.
  takeSnapshotLocked();
}

void Service::takeSnapshotLocked() {
  if (!Durable)
    return;
  StateSnapshot Snapshot;
  Snapshot.LastSeq = NextSeq - 1;
  Snapshot.Fingerprint =
      systemFingerprint(Session->system(), Session->reps());
  Snapshot.Solve = Warm.Solve;
  Snapshot.FeedbackOpts = WarmFO;
  Snapshot.Feedback = Feedback.entries();
  std::string Error;
  if (!Durable->writeSnapshot(Snapshot, Error)) {
    // The journal still holds every op; losing one snapshot degrades
    // recovery time, not correctness.
    std::fprintf(stderr, "state: snapshot failed: %s\n", Error.c_str());
    return;
  }
  LastSnapshotSeq = Snapshot.LastSeq;
  EverSnapshotted = true;
}

void Service::journalAppend(JournalRecord &Rec) {
  if (!Durable)
    return;
  Rec.Seq = NextSeq++;
  std::string Error;
  if (!Durable->appendRecord(Rec, Error))
    throw OpError(ErrorCode::Internal,
                  formatString("cannot journal op: %s", Error.c_str()));
}

void Service::journalAbort(uint64_t Seq) {
  if (!Durable || Seq == 0)
    return;
  JournalRecord Abort;
  Abort.Op = JournalOp::Abort;
  Abort.AbortedSeq = Seq;
  // Best-effort, from a catch block: a failed abort append means the op
  // gets replayed on recovery and fails again there — annoying, not
  // incorrect — and must not mask the original error.
  try {
    journalAppend(Abort);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "state: %s\n", E.what());
  }
}

void Service::publishLocked(infer::PipelineResult R) {
  // Build first: if it throws, the previous state and its index keep
  // serving together.
  constraints::RowIndex Rows = constraints::buildRowIndex(R.System);
  Warm = std::move(R);
  WarmRows = std::move(Rows);
}

bool Service::loadCorpus(std::vector<pysem::Project> &Out,
                         std::string &Error) {
  std::vector<std::vector<std::string>> LoadErrors;
  std::vector<std::optional<pysem::Project>> Loaded =
      pysem::loadProjectsFromDirs(Opts.CorpusDirs, pysem::LoadOptions(),
                                  Opts.Jobs, &LoadErrors);
  for (size_t I = 0; I < Loaded.size(); ++I) {
    for (const std::string &E : LoadErrors[I])
      std::fprintf(stderr, "warning: %s\n", E.c_str());
    if (!Loaded[I]) {
      Error = Opts.CorpusDirs[I] + " is not a directory";
      return false;
    }
    Out.push_back(std::move(*Loaded[I]));
  }
  return true;
}

std::unique_ptr<infer::Session> Service::makeSession() {
  infer::PipelineOptions P;
  P.Solve.MaxIterations = Opts.Iterations;
  P.Gen.RepCutoff = Opts.RepCutoff;
  P.Jobs = Opts.Jobs;
  P.Solve.Backend = Opts.Backend;
  P.Strict = Opts.Strict;
  // Session::armDeadline is one-shot, which is wrong for a daemon: the
  // run deadline stays disarmed forever and per-request budgets flow
  // through SolveOptions (learn) or per-stage polls (query/taint).
  P.DeadlineSeconds = 0.0;
  // Every session solves against the service's cumulative feedback set;
  // while it is empty applyFeedback never runs and the solve is
  // byte-identical to the passive path.
  P.Feedback = &Feedback;
  auto S = std::make_unique<infer::Session>(P);
  if (!Opts.CacheDir.empty())
    S->enableCache(Opts.CacheDir);
  if (!Opts.ShardCacheDir.empty())
    S->enableShardCache(Opts.ShardCacheDir);
  return S;
}

bool Service::tryAdmit() {
  size_t Prev = Admitted.fetch_add(1, std::memory_order_acq_rel);
  if (Prev >= Opts.MaxInFlight) {
    Admitted.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  return true;
}

void Service::release() {
  Admitted.fetch_sub(1, std::memory_order_acq_rel);
}

std::string Service::serve(const std::string &Line) {
  if (!tryAdmit())
    return overloadedResponse(Line);
  std::string Response = handle(Line);
  release();
  return Response;
}

std::string Service::overloadedResponse(const std::string &Line) const {
  // Best-effort id salvage; parseRequest fills Out.Id whenever the line
  // parses as an object, even when validation fails afterwards.
  Request Req;
  RequestError Err;
  (void)parseRequest(Line, Opts.MaxRequestBytes, Req, Err);
  return renderErrorResponse(
      Req.Id, ErrorCode::Overloaded,
      formatString("%zu request(s) already in flight; retry later",
                   Opts.MaxInFlight));
}

std::string Service::handle(const std::string &Line) {
  Handled.fetch_add(1, std::memory_order_relaxed);
  Request Req;
  RequestError Err;
  if (!parseRequest(Line, Opts.MaxRequestBytes, Req, Err)) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    return renderErrorResponse(Req.Id, Err.Code, Err.Message);
  }
  if (shuttingDown()) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    return renderErrorResponse(Req.Id, ErrorCode::ShuttingDown,
                               "service is draining");
  }
  try {
    if (!Started)
      throw OpError(ErrorCode::Internal, "service not started");
    Deadline D;
    double Budget = Opts.RequestDeadlineSeconds;
    if (const JsonValue *DS = Req.Params.get("deadline_s")) {
      if (!DS->isNumber() || DS->numberValue() < 0.0)
        badRequest("\"deadline_s\" must be a non-negative number");
      Budget = DS->numberValue();
    }
    D.arm(Budget);
    return renderOkResponse(Req.Id, dispatch(Req, D));
  } catch (const OpError &E) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    return renderErrorResponse(Req.Id, E.Code, E.what());
  } catch (const DeadlineError &E) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    return renderErrorResponse(Req.Id, ErrorCode::Deadline, E.what());
  } catch (const std::exception &E) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    return renderErrorResponse(Req.Id, ErrorCode::Internal, E.what());
  } catch (...) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    return renderErrorResponse(Req.Id, ErrorCode::Internal,
                               "unknown exception");
  }
}

std::string Service::dispatch(const Request &Req, Deadline &D) {
  if (Req.Op == "status")
    return opStatus();
  if (Req.Op == "query")
    return opQuery(Req, D);
  if (Req.Op == "learn")
    return opLearn(Req, D);
  if (Req.Op == "feedback")
    return opFeedback(Req, D);
  if (Req.Op == "taint")
    return opTaint(Req, D);
  if (Req.Op == "shutdown") {
    ShuttingDown.store(true, std::memory_order_release);
    return "{\"stopping\":true}";
  }
  throw OpError(ErrorCode::UnknownOp,
                formatString("unknown op \"%s\" (expected status, query, "
                             "learn, feedback, taint, or shutdown)",
                             Req.Op.c_str()));
}

std::string Service::opStatus() {
  std::shared_lock<std::shared_mutex> Lock(WarmMutex);
  metrics::Registry &Reg = metrics::Registry::global();
  std::string Durability = "{\"enabled\":false}";
  if (Durable) {
    DurabilityStats DS = Durable->stats();
    Durability = formatString(
        "{\"enabled\":true,\"appends\":%llu,\"fsyncs\":%llu,"
        "\"journal_bytes\":%llu,\"snapshots\":%llu,\"compactions\":%llu,"
        "\"replayed\":%llu,\"truncated_tail_bytes\":%llu,"
        "\"evicted_snapshots\":%llu,\"evicted_journals\":%llu,"
        "\"stale_temps_removed\":%llu,\"recovery_seconds\":%s}",
        static_cast<unsigned long long>(DS.Appends),
        static_cast<unsigned long long>(DS.Fsyncs),
        static_cast<unsigned long long>(DS.BytesAppended),
        static_cast<unsigned long long>(DS.Snapshots),
        static_cast<unsigned long long>(DS.Compactions),
        static_cast<unsigned long long>(DS.ReplayedRecords),
        static_cast<unsigned long long>(DS.TruncatedTailBytes),
        static_cast<unsigned long long>(DS.EvictedSnapshots),
        static_cast<unsigned long long>(DS.EvictedJournals),
        static_cast<unsigned long long>(DS.StaleTempsRemoved),
        renderJsonNumber(DS.RecoverySeconds).c_str());
  }
  return formatString(
      "{\"protocol\":%d,"
      "\"corpus\":{\"projects\":%zu,\"files\":%zu,\"events\":%zu,"
      "\"edges\":%zu},"
      "\"system\":{\"candidates\":%zu,\"constraints\":%zu},"
      "\"spec\":{\"size\":%zu,\"threshold\":%s},"
      "\"solve\":{\"iterations\":%d,\"converged\":%s},"
      "\"health\":{\"status\":\"%s\",\"quarantined\":%zu},"
      "\"cache\":{\"enabled\":%s,\"hits\":%llu,\"misses\":%llu,"
      "\"stores\":%llu},"
      "\"requests\":{\"handled\":%llu,\"failed\":%llu,\"active\":%zu},"
      "\"durability\":%s,"
      "\"metrics\":{\"parse_files\":%llu,\"taint_analyses\":%llu}}",
      ProtocolVersion, Corpus.size(), Warm.Graph->files().size(),
      Warm.Graph->numEvents(), Warm.Graph->numEdges(),
      Warm.System.NumCandidates, Warm.System.Constraints.size(),
      Warm.Learned.size(),
      renderJsonNumber(Opts.Threshold).c_str(), Warm.Solve.Iterations,
      Warm.Solve.Converged ? "true" : "false",
      infer::runStatusName(Warm.status()), Warm.Health.Quarantined.size(),
      Warm.UsedCache ? "true" : "false",
      static_cast<unsigned long long>(Warm.Cache.Hits),
      static_cast<unsigned long long>(Warm.Cache.Misses),
      static_cast<unsigned long long>(Warm.Cache.Stores),
      static_cast<unsigned long long>(
          Handled.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          Failed.load(std::memory_order_relaxed)),
      Admitted.load(std::memory_order_relaxed), Durability.c_str(),
      static_cast<unsigned long long>(Reg.counter("parse.files").value()),
      static_cast<unsigned long long>(
          Reg.counter("taint.analyses").value()));
}

std::string Service::opQuery(const Request &Req, Deadline &D) {
  const JsonValue *Rep = Req.Params.get("rep");
  if (!Rep || !Rep->isString() || Rep->stringValue().empty())
    badRequest("\"rep\" must be a non-empty string");
  std::string RoleName = "source";
  if (const JsonValue *R = Req.Params.get("role")) {
    if (!R->isString())
      badRequest("\"role\" must be a string");
    RoleName = R->stringValue();
  }
  propgraph::Role Role;
  if (!roleFromName(RoleName, Role))
    badRequest("\"role\" must be source|sanitizer|sink");

  checkDeadline(D, "query");
  QueryResult Q;
  {
    std::shared_lock<std::shared_mutex> Lock(WarmMutex);
    Q = queryRep(Warm.System, Warm.Reps, Rep->stringValue(), Role,
                 Warm.Solve.X, &WarmRows);
  }
  // The answer owns its text, so it renders after the lock is released.
  return renderQueryJson(Q);
}

std::string Service::opLearn(const Request &Req, Deadline &D) {
  long Iters =
      readIntParam(Req, "iters", Opts.Iterations, 1, 10'000'000);
  bool Reload = readBoolParam(Req, "reload", false);
  // A reload defaults to a warm start — the point of an incremental
  // re-learn is converging quickly from the served spec; a plain re-solve
  // stays cold by default so differential clients get the exact
  // reference trajectory.
  bool WarmStart = readBoolParam(Req, "warm", Reload);
  // Optional per-request evaluator override; the daemon default is
  // restored once the solve finishes (or throws).
  solver::SolverBackend Backend = Opts.Backend;
  if (const JsonValue *B = Req.Params.get("backend")) {
    if (!B->isString() ||
        !solver::parseSolverBackend(B->stringValue(), Backend))
      badRequest(std::string("\"backend\" must be ") +
                 solver::SolverBackendChoices);
  }

  checkDeadline(D, Reload ? "reload" : "solve");
  JournalRecord Rec;
  Rec.Op = JournalOp::Learn;
  Rec.Iters = static_cast<uint64_t>(Iters);
  Rec.WarmStart = WarmStart;
  Rec.Reload = Reload;
  Rec.Backend = Backend;

  std::unique_lock<std::shared_mutex> Lock(WarmMutex);
  // Journal + fsync *before* the solve mutates anything: a crash at any
  // later point replays this op from the journal.
  journalAppend(Rec);
  try {
    applyLearnRecord(Rec, &D);
  } catch (...) {
    journalAbort(Rec.Seq);
    throw;
  }
  takeSnapshotLocked();
  return formatString(
      "{\"iterations\":%d,\"converged\":%s,\"constraints\":%zu,"
      "\"candidates\":%zu,\"spec_size\":%zu,\"warm_started\":%s,"
      "\"backend\":\"%s\",\"simd_active\":%s,"
      "\"incremental\":{\"shards_hit\":%llu,\"shards_rebuilt\":%llu,"
      "\"warm_start\":%s},"
      "\"health\":\"%s\"}",
      Warm.Solve.Iterations, Warm.Solve.Converged ? "true" : "false",
      Warm.System.Constraints.size(), Warm.System.NumCandidates,
      Warm.Learned.size(), WarmStart ? "true" : "false",
      solver::solverBackendName(Warm.Backend),
      Warm.SimdActive ? "true" : "false",
      static_cast<unsigned long long>(Warm.Incr.ShardsHit),
      static_cast<unsigned long long>(Warm.Incr.ShardsRebuilt),
      Warm.Incr.WarmStarted ? "true" : "false",
      infer::runStatusName(Warm.status()));
}

std::string Service::opFeedback(const Request &Req, Deadline &D) {
  long Iters =
      readIntParam(Req, "iters", Opts.Iterations, 1, 10'000'000);
  // Feedback exists to nudge the served spec, so it warm-starts by
  // default; "warm": false forces the cold reference trajectory.
  bool WarmStart = readBoolParam(Req, "warm", true);
  constraints::FeedbackOptions FO;
  if (const JsonValue *W = Req.Params.get("weight")) {
    if (!W->isNumber() || W->numberValue() <= 0.0)
      badRequest("\"weight\" must be a positive number");
    FO.AcceptWeight = FO.RejectWeight = W->numberValue();
  }
  if (const JsonValue *Dk = Req.Params.get("decay")) {
    if (!Dk->isNumber() || Dk->numberValue() < 0.0 ||
        Dk->numberValue() > 1.0)
      badRequest("\"decay\" must be a number in [0, 1]");
    FO.SimilarityDecay = Dk->numberValue();
  }
  constraints::FeedbackSet Delta;
  std::string Error;
  size_t Accepted = 0, Rejected = 0;
  if (!feedbackFromJson(Req.Params, Delta, Error, &Accepted, &Rejected))
    badRequest(Error);

  checkDeadline(D, "feedback solve");
  JournalRecord Rec;
  Rec.Op = JournalOp::Feedback;
  Rec.Entries = Delta.entries();
  Rec.FeedbackOpts = FO;
  Rec.Iters = static_cast<uint64_t>(Iters);
  Rec.WarmStart = WarmStart;

  std::unique_lock<std::shared_mutex> Lock(WarmMutex);
  // Journal + fsync *before* the verdict merge and re-solve: a crash at
  // any later point replays this op from the journal.
  journalAppend(Rec);
  try {
    applyFeedbackRecord(Rec, &D);
  } catch (...) {
    journalAbort(Rec.Seq);
    throw;
  }
  takeSnapshotLocked();
  return formatString(
      "{\"accepted\":%zu,\"rejected\":%zu,\"total_feedback\":%zu,"
      "\"matched\":%zu,\"unmatched\":%zu,\"evidence_rows\":%zu,"
      "\"propagated_rows\":%zu,"
      "\"iterations\":%d,\"converged\":%s,\"spec_size\":%zu,"
      "\"warm_started\":%s}",
      Accepted, Rejected, Feedback.size(), Warm.Feedback.Matched,
      Warm.Feedback.Unmatched, Warm.Feedback.EvidenceRows,
      Warm.Feedback.PropagatedRows, Warm.Solve.Iterations,
      Warm.Solve.Converged ? "true" : "false", Warm.Learned.size(),
      WarmStart ? "true" : "false");
}

infer::PipelineResult Service::solveRecord(infer::Session &S,
                                           const JournalRecord &Rec,
                                           Deadline *D) {
  // The warm-start spec must outlive the solve; options().WarmStart is a
  // borrowed pointer, and the scope clears it (with every other
  // per-request knob) before WarmCopy and D die.
  spec::LearnedSpec WarmCopy;
  infer::ScopedOptions Scope(S);
  infer::PipelineOptions &P = S.options();
  P.Solve.MaxIterations = static_cast<int>(Rec.Iters);
  if (Rec.Op == JournalOp::Learn)
    P.Solve.Backend = Rec.Backend;
  else
    P.FeedbackOpts = Rec.FeedbackOpts;
  if (D && D->armed())
    P.Solve.ShouldStop = [D]() { return D->expired(); };
  if (Rec.WarmStart) {
    WarmCopy = Warm.Learned;
    P.WarmStart = &WarmCopy;
  }
  return S.solve();
}

void Service::applyLearnRecord(const JournalRecord &Rec, Deadline *D) {
  if (Rec.Reload) {
    // Re-read the corpus into a *fresh* session: the served state stays
    // untouched (and keeps serving reads after we release the lock on a
    // throw) until the new solve has fully succeeded. With the graph and
    // shard caches enabled, unchanged projects replay their cached graph
    // and constraint shard — only the delta re-parses and re-extracts.
    std::vector<pysem::Project> NewCorpus;
    std::string Error;
    if (!loadCorpus(NewCorpus, Error))
      throw OpError(ErrorCode::Internal, Error);
    std::unique_ptr<infer::Session> NewSession = makeSession();
    NewSession->addProjects(NewCorpus);
    NewSession->generateConstraints(Seed);
    infer::PipelineResult R = solveRecord(*NewSession, Rec, D);
    // Moving the vector moves its buffer, not its elements, so the
    // Project pointers the new session borrowed stay valid.
    Corpus = std::move(NewCorpus);
    Session = std::move(NewSession);
    publishLocked(std::move(R));
  } else {
    // The graph and constraint system are warm (GraphReady/SystemReady
    // from start()); solve() alone re-optimizes — no re-parse, no re-gen.
    publishLocked(solveRecord(*Session, Rec, D));
  }
  WarmFO = Session->options().FeedbackOpts;
}

void Service::applyFeedbackRecord(const JournalRecord &Rec, Deadline *D) {
  // Merge the delta into the cumulative set; a repeated pair keeps the
  // newest verdict. The session's options already point at Feedback, so
  // the re-solve below (and every later learn) sees the merged set.
  for (const constraints::FeedbackEntry &E : Rec.Entries) {
    if (E.Accepted)
      Feedback.accept(E.Rep, E.R);
    else
      Feedback.reject(E.Rep, E.R);
  }
  publishLocked(solveRecord(*Session, Rec, D));
  WarmFO = Rec.FeedbackOpts;
}

std::string Service::opTaint(const Request &Req, Deadline &D) {
  const JsonValue *Files = Req.Params.get("files");
  const JsonValue *Path = Req.Params.get("path");
  if ((Files != nullptr) == (Path != nullptr))
    badRequest("taint needs exactly one of \"files\" (object of "
               "name -> source) or \"path\" (directory)");
  double Threshold = Opts.Threshold;
  if (const JsonValue *T = Req.Params.get("threshold")) {
    if (!T->isNumber())
      badRequest("\"threshold\" must be a number");
    Threshold = T->numberValue();
  }
  bool Dedup = readBoolParam(Req, "dedup", true);

  pysem::Project Payload("payload");
  if (Files) {
    if (!Files->isObject() || Files->objectValue().empty())
      badRequest("\"files\" must be a non-empty object of "
                 "name -> source");
    // std::map iteration is sorted by name, so the payload graph — and
    // therefore the report order — is deterministic.
    for (const auto &[Name, Source] : Files->objectValue()) {
      if (!Source.isString())
        badRequest(
            formatString("\"files\" entry \"%s\" must be a string",
                         Name.c_str()));
      Payload.addModule(Name, Source.stringValue());
    }
  } else {
    if (!Path->isString() || Path->stringValue().empty())
      badRequest("\"path\" must be a non-empty string");
    std::vector<std::string> LoadErrors;
    std::optional<pysem::Project> Loaded = pysem::loadProjectFromDir(
        Path->stringValue(), pysem::LoadOptions(), &LoadErrors);
    if (!Loaded)
      badRequest(Path->stringValue() + " is not a directory");
    Payload = std::move(*Loaded);
  }

  checkDeadline(D, "graph build");
  propgraph::PropagationGraph Graph =
      propgraph::buildProjectGraph(Payload);

  checkDeadline(D, "taint analysis");
  std::shared_lock<std::shared_mutex> Lock(WarmMutex);
  taint::RoleResolver Roles(&Seed.Spec, &Warm.Learned, Threshold);
  taint::TaintAnalyzer Analyzer(Graph);
  std::vector<taint::Violation> Reports = Analyzer.analyze(Roles);
  if (Dedup)
    Reports = taint::dedupByRepPair(Graph, Reports);
  std::vector<double> Confidence = taint::rankViolations(
      Graph, Reports, &Seed.Spec, &Warm.Learned, Threshold);
  return taint::reportsToJson(Graph, Reports, &Confidence);
}
