//===- constraints/ConstraintGen.cpp - Fig. 4 constraint extraction -------===//

#include "constraints/ConstraintGen.h"

#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace seldon;
using namespace seldon::constraints;
using namespace seldon::propgraph;

namespace {

/// Per-file constraint extraction context. Reachability queries stay inside
/// one file because per-file subgraphs are edge-disjoint. Reads the shared
/// backoff options but interns variables into its own local table and
/// writes only its own Out buffer, so one extractor per file can run
/// concurrently with no shared mutable state. Constraints come back with
/// file-local variable ids; the caller replays each local table into the
/// global one (in file order) and remaps, which reproduces the exact id
/// assignment of a serial run.
class FileExtractor {
public:
  FileExtractor(const PropagationGraph &Graph,
                const std::vector<std::vector<RepId>> &EventReps,
                const GenOptions &Opts, const std::vector<EventId> &Local,
                VarTable &LocalVars,
                std::vector<solver::LinearConstraint> &Out)
      : Graph(Graph), EventReps(EventReps), Opts(Opts), Local(Local),
        LocalVars(LocalVars), Out(Out) {}

  void run() {
    // Collect the file's candidates per role (events with surviving reps).
    for (EventId Id : Local) {
      if (EventReps[Id].empty())
        continue;
      RoleMask Mask = Graph.event(Id).Candidates;
      if (maskHas(Mask, Role::Source))
        Sources.push_back(Id);
      if (maskHas(Mask, Role::Sanitizer))
        Sanitizers.push_back(Id);
      if (maskHas(Mask, Role::Sink))
        Sinks.push_back(Id);
    }
    extractSanitizerAnchored();
    extractSourceSinkPairs();
  }

private:
  /// Fig. 4a and Fig. 4b share the per-sanitizer forward/backward scans.
  void extractSanitizerAnchored() {
    for (EventId San : Sanitizers) {
      const std::unordered_set<EventId> &Fwd = forwardSet(San);
      std::unordered_set<EventId> Bwd = backwardSet(San);

      std::vector<EventId> SinksAfter = membersOf(Sinks, Fwd);
      std::vector<EventId> SourcesBefore = membersOf(Sources, Bwd);
      if (SinksAfter.empty() && SourcesBefore.empty())
        continue;

      // Fig. 4a: san(v) + snk(t) <= sum of sources into v + C.
      std::vector<solver::Term> SourceSum = sumTerms(SourcesBefore,
                                                     Role::Source);
      size_t Pairs = 0;
      for (EventId Snk : SinksAfter) {
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        solver::LinearConstraint LC;
        appendAvgTerms(LC.Lhs, San, Role::Sanitizer);
        appendAvgTerms(LC.Lhs, Snk, Role::Sink);
        LC.Rhs = SourceSum;
        LC.C = Opts.C;
        Out.push_back(std::move(LC));
      }

      // Fig. 4b: src(s) + san(v) <= sum of sinks after v + C.
      std::vector<solver::Term> SinkSum = sumTerms(SinksAfter, Role::Sink);
      Pairs = 0;
      for (EventId Src : SourcesBefore) {
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        solver::LinearConstraint LC;
        appendAvgTerms(LC.Lhs, Src, Role::Source);
        appendAvgTerms(LC.Lhs, San, Role::Sanitizer);
        LC.Rhs = SinkSum;
        LC.C = Opts.C;
        Out.push_back(std::move(LC));
      }
    }
  }

  /// Fig. 4c: src(s) + snk(t) <= sum of sanitizers between s and t + C.
  void extractSourceSinkPairs() {
    for (EventId Src : Sources) {
      const std::unordered_set<EventId> &Fwd = forwardSet(Src);
      std::vector<EventId> SinksAfter = membersOf(Sinks, Fwd);
      std::vector<EventId> SansAfter = membersOf(Sanitizers, Fwd);
      size_t Pairs = 0;
      for (EventId Snk : SinksAfter) {
        if (Snk == Src)
          continue;
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        solver::LinearConstraint LC;
        appendAvgTerms(LC.Lhs, Src, Role::Source);
        appendAvgTerms(LC.Lhs, Snk, Role::Sink);
        for (EventId Mid : SansAfter) {
          if (Mid == Snk || Mid == Src)
            continue;
          if (forwardSet(Mid).count(Snk))
            appendAvgTerms(LC.Rhs, Mid, Role::Sanitizer);
        }
        LC.C = Opts.C;
        Out.push_back(std::move(LC));
      }
    }
  }

  /// Sorted members of \p Candidates contained in \p Set.
  static std::vector<EventId>
  membersOf(const std::vector<EventId> &Candidates,
            const std::unordered_set<EventId> &Set) {
    std::vector<EventId> Out;
    for (EventId Id : Candidates)
      if (Set.count(Id))
        Out.push_back(Id);
    return Out;
  }

  const std::unordered_set<EventId> &forwardSet(EventId Id) {
    auto It = FwdCache.find(Id);
    if (It != FwdCache.end())
      return It->second;
    std::unordered_set<EventId> Set;
    for (EventId R : Graph.reachableFrom(Id))
      Set.insert(R);
    return FwdCache.emplace(Id, std::move(Set)).first->second;
  }

  std::unordered_set<EventId> backwardSet(EventId Id) const {
    std::unordered_set<EventId> Set;
    for (EventId R : Graph.reachingTo(Id))
      Set.insert(R);
    return Set;
  }

  /// Appends the backoff-averaged terms of (event, role) — paper §4.3:
  /// (1/|Reps(v)|) · Σ over the surviving options. Variables are interned
  /// into the file-local table in first-use order, mirroring the order a
  /// serial run would create them.
  void appendAvgTerms(std::vector<solver::Term> &Terms, EventId Id, Role R) {
    const std::vector<RepId> &Options = EventReps[Id];
    float Coef = 1.0f / static_cast<float>(Options.size());
    for (RepId Rep : Options)
      Terms.push_back({LocalVars.varFor(Rep, R), Coef});
  }

  std::vector<solver::Term> sumTerms(const std::vector<EventId> &Ids,
                                     Role R) {
    std::vector<solver::Term> Terms;
    for (EventId Id : Ids)
      appendAvgTerms(Terms, Id, R);
    return Terms;
  }

  const PropagationGraph &Graph;
  const std::vector<std::vector<RepId>> &EventReps;
  const GenOptions &Opts;
  const std::vector<EventId> &Local;
  VarTable &LocalVars;
  std::vector<solver::LinearConstraint> &Out;
  std::vector<EventId> Sources, Sanitizers, Sinks;
  std::unordered_map<EventId, std::unordered_set<EventId>> FwdCache;
};

} // namespace

ConstraintSystem
seldon::constraints::prepareSystem(const PropagationGraph &Graph,
                                   const RepTable &Reps,
                                   const spec::SeedSpec &Seed,
                                   const GenOptions &Opts, ThreadPool *Pool) {
  ConstraintSystem Sys;
  const std::vector<Event> &Events = Graph.events();
  Sys.EventReps.resize(Events.size());

  // Surviving backoff options: frequency cutoff (§4.3) + blacklist (§7.2).
  // Each event writes only its own slot, so the filter fans out freely.
  auto FilterEvent = [&](size_t I, unsigned) {
    const Event &E = Events[I];
    std::vector<RepId> Options = Reps.backoffOptions(E, Opts.RepCutoff);
    std::vector<RepId> Kept;
    for (RepId Id : Options)
      if (!Seed.isBlacklisted(Reps.repString(Id)))
        Kept.push_back(Id);
    Sys.EventReps[E.Id] = std::move(Kept);
  };
  if (Pool)
    Pool->parallelFor(Events.size(), FilterEvent);
  else
    for (size_t I = 0; I < Events.size(); ++I)
      FilterEvent(I, 0);

  size_t BackoffTotal = 0;
  for (const std::vector<RepId> &Kept : Sys.EventReps) {
    if (!Kept.empty()) {
      ++Sys.NumCandidates;
      BackoffTotal += Kept.size();
    }
  }
  Sys.AvgBackoffOptions =
      Sys.NumCandidates == 0
          ? 0.0
          : static_cast<double>(BackoffTotal) /
                static_cast<double>(Sys.NumCandidates);

  // Seed pins (§4.1): a labeled representation fixes all three of its role
  // variables (1 for held roles, 0 for the others).
  for (const auto &[RepStr, Mask] : Seed.Spec.entries()) {
    RepId Id;
    if (!Reps.lookup(RepStr, Id))
      continue; // Seed API never occurs in this corpus.
    for (Role R : {Role::Source, Role::Sanitizer, Role::Sink}) {
      VarId V = Sys.Vars.varFor(Id, R);
      Sys.Pinned.emplace_back(V, maskHas(Mask, R) ? 1.0 : 0.0);
    }
  }
  return Sys;
}

ConstraintSystem
seldon::constraints::generateConstraints(const PropagationGraph &Graph,
                                         const RepTable &Reps,
                                         const spec::SeedSpec &Seed,
                                         const GenOptions &Opts,
                                         ThreadPool *Pool,
                                         std::vector<double> *ShardSecondsOut,
                                         const Deadline *StopAt) {
  ConstraintSystem Sys = prepareSystem(Graph, Reps, Seed, Opts, Pool);
  const std::vector<Event> &Events = Graph.events();

  // Group events by file and extract per file into private buffers. Each
  // shard interns variables into its own local table, so extraction
  // touches no shared mutable state.
  std::vector<std::vector<EventId>> ByFile(Graph.files().size());
  for (const Event &E : Events)
    ByFile[E.FileIdx].push_back(E.Id);

  std::vector<ConstraintBlock> PerFile(ByFile.size());
  unsigned Workers = Pool ? Pool->numWorkers() : 1;
  std::vector<double> ShardSeconds(Workers, 0.0);
  auto ExtractFile = [&](size_t F, unsigned Worker) {
    if (ByFile[F].empty())
      return;
    // Cooperative cancellation at the shard boundary: a truncated system
    // would silently change the learned scores, so expiry is a hard error
    // the caller contextualizes (parallelFor rethrows it deterministically).
    if (StopAt && StopAt->expired())
      throw DeadlineError("deadline expired during constraint generation");
    if (fault::enabled())
      fault::maybeThrow(fault::Point::ConstraintGen, F);
    Timer ShardTimer;
    FileExtractor Extractor(Graph, Sys.EventReps, Opts, ByFile[F],
                            PerFile[F].Vars, PerFile[F].Constraints);
    Extractor.run();
    ShardSeconds[Worker] += ShardTimer.seconds();
  };
  if (Pool)
    Pool->parallelFor(ByFile.size(), ExtractFile);
  else
    for (size_t F = 0; F < ByFile.size(); ++F)
      ExtractFile(F, 0);

  mergeBlocks(PerFile, Sys);

  if (ShardSecondsOut)
    *ShardSecondsOut = std::move(ShardSeconds);
  return Sys;
}

void seldon::constraints::mergeBlocks(std::vector<ConstraintBlock> &Blocks,
                                      ConstraintSystem &Sys) {
  size_t Total = Sys.Constraints.size();
  for (const ConstraintBlock &Block : Blocks)
    Total += Block.Constraints.size();
  Sys.Constraints.reserve(Total);
  std::vector<VarId> Map;
  for (ConstraintBlock &Block : Blocks) {
    Map.resize(Block.Vars.numVars());
    for (VarId L = 0; L < Block.Vars.numVars(); ++L)
      Map[L] = Sys.Vars.varFor(Block.Vars.repOf(L), Block.Vars.roleOf(L));
    for (solver::LinearConstraint &LC : Block.Constraints) {
      for (solver::Term &T : LC.Lhs)
        T.Var = Map[T.Var];
      for (solver::Term &T : LC.Rhs)
        T.Var = Map[T.Var];
      Sys.Constraints.push_back(std::move(LC));
    }
    Block = ConstraintBlock(); // Free as we go.
  }
}
