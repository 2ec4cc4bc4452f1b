//===- constraints/ConstraintGen.cpp - Fig. 4 constraint extraction -------===//
//
// The one implementation of the Fig. 4 templates behind ConstraintGen.h and
// ConstraintShard.h. One per-file traversal records a file's anchors as a
// ShardFile over local event ids; one emitter turns anchors into rows,
// given each local event's surviving backoff options, and writes them
// straight into a flat row store. Direct generation traverses candidates
// only and emits from Sys.EventReps; extractShard traverses unfiltered and
// interns representation strings; replay resolves those strings against
// the current corpus and calls the same emitter.
//
//===----------------------------------------------------------------------===//

#include "constraints/ConstraintGen.h"
#include "constraints/ConstraintShard.h"

#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>
#include <optional>
#include <ranges>
#include <span>

using namespace seldon;
using namespace seldon::constraints;
using namespace seldon::propgraph;

size_t ConstraintShard::numAnchors() const {
  size_t N = 0;
  for (const ShardFile &F : Files)
    N += F.SanAnchors.size() + F.SrcAnchors.size();
  return N;
}

namespace {

/// Per local event, its surviving backoff options: the §4.3 frequency
/// cutoff and the §7.2 blacklist applied. An event with none is dead.
using LocalOptions = std::vector<std::span<const RepId>>;

/// The Fig. 4 traversal of one file. Local ids index \p Local, the file's
/// events in id order. With \p Live, only events with surviving options are
/// candidates (direct generation's filter); without it, every event with a
/// candidate role is (a shard's filter-free view). Anchors and their member
/// lists come out in candidate order: every sanitizer anchor (Fig. 4a/4b)
/// with a source upstream or a sink downstream, then every source anchor
/// (Fig. 4c) with a sink downstream.
ShardFile traverseFile(const PropagationGraph &Graph,
                       const std::vector<EventId> &Local,
                       const LocalOptions *Live) {
  std::vector<ShardEventId> Sources, Sanitizers, Sinks;
  for (ShardEventId L = 0; L < Local.size(); ++L) {
    if (Live && (*Live)[L].empty())
      continue;
    RoleMask Mask = Graph.event(Local[L]).Candidates;
    if (maskHas(Mask, Role::Source))
      Sources.push_back(L);
    if (maskHas(Mask, Role::Sanitizer))
      Sanitizers.push_back(L);
    if (maskHas(Mask, Role::Sink))
      Sinks.push_back(L);
  }

  // Reach sets are sorted vectors, sized by what they hold. Candidate lists
  // and Local are ascending, so a set's members among candidates come out
  // by one merge. A sanitizer's forward set is probed by binary search
  // once per (source, sink) pair it might lie between, so forward sets are
  // computed once per event.
  auto Sorted = [](std::vector<EventId> Set) {
    std::sort(Set.begin(), Set.end());
    return Set;
  };
  std::vector<std::optional<std::vector<EventId>>> Fwd(Local.size());
  auto Forward = [&](ShardEventId L) -> const std::vector<EventId> & {
    if (!Fwd[L])
      Fwd[L] = Sorted(Graph.reachableFrom(Local[L]));
    return *Fwd[L];
  };
  auto MembersOf = [&](const std::vector<ShardEventId> &Candidates,
                       const std::vector<EventId> &Set) {
    std::vector<ShardEventId> Out;
    auto It = Set.begin();
    for (ShardEventId L : Candidates) {
      while (It != Set.end() && *It < Local[L])
        ++It;
      if (It == Set.end())
        break;
      if (*It == Local[L])
        Out.push_back(L);
    }
    return Out;
  };

  ShardFile File;
  for (ShardEventId San : Sanitizers) {
    ShardSanAnchor Anchor;
    Anchor.San = San;
    Anchor.SourcesBefore =
        MembersOf(Sources, Sorted(Graph.reachingTo(Local[San])));
    Anchor.SinksAfter = MembersOf(Sinks, Forward(San));
    if (!Anchor.SourcesBefore.empty() || !Anchor.SinksAfter.empty())
      File.SanAnchors.push_back(std::move(Anchor));
  }
  for (ShardEventId Src : Sources) {
    const std::vector<EventId> &Reach = Forward(Src);
    std::vector<ShardEventId> SansAfter = MembersOf(Sanitizers, Reach);
    ShardSrcAnchor Anchor;
    Anchor.Src = Src;
    for (ShardEventId Snk : MembersOf(Sinks, Reach)) {
      if (Snk == Src)
        continue;
      ShardSrcPair &Pair = Anchor.Pairs.emplace_back();
      Pair.Snk = Snk;
      for (ShardEventId Mid : SansAfter) {
        if (Mid == Snk || Mid == Src)
          continue;
        const std::vector<EventId> &MidReach = Forward(Mid);
        if (std::binary_search(MidReach.begin(), MidReach.end(), Local[Snk]))
          Pair.Mids.push_back(Mid);
      }
    }
    if (!Anchor.Pairs.empty())
      File.SrcAnchors.push_back(std::move(Anchor));
  }
  return File;
}

/// The rows one unit of work (a file during generation, a project's shard
/// during composition) emitted on its own, over a block-local variable
/// table whose ids follow first use within the block.
struct ConstraintBlock {
  VarTable Vars;
  solver::ConstraintRows Constraints;
};

/// The Fig. 4 emitter: turns anchors over local event ids into rows over
/// Out.Vars, appended to Out.Constraints. A dead anchor emits nothing, and
/// dead members are dropped before the MaxPairsPerAnchor cap counts, so
/// the cap counts surviving pairs only. Every variable occurrence is the
/// 1/|Reps(v)| average of the event's surviving options (§4.3). Variables
/// are interned in the order the terms are first needed: for Fig. 4a/4b
/// the anchor's sum, then each row's two Lhs events; for Fig. 4c each
/// row's two Lhs events, then its mids.
class RowEmitter {
public:
  RowEmitter(LocalOptions Options, const GenOptions &Opts,
             ConstraintBlock &Out)
      : Options(std::move(Options)), Opts(Opts), Out(Out),
        BlockAt(this->Options.size(), {Unbuilt, Unbuilt, Unbuilt}) {}

  void emit(const ShardFile &File) {
    solver::ConstraintRows &Rows = Out.Constraints;
    for (const ShardSanAnchor &Anchor : File.SanAnchors) {
      if (!live(Anchor.San))
        continue;
      // Fig. 4a: san(v) + snk(t) <= sum of sources into v + C.
      sumOf(Anchor.SourcesBefore, Role::Source);
      capped(Anchor.SinksAfter, [&](ShardEventId Snk) {
        lhs(Anchor.San, Role::Sanitizer, Snk, Role::Sink);
        Rows.push(Sum);
        Rows.closeRow(Opts.C);
      });
      // Fig. 4b: src(s) + san(v) <= sum of sinks after v + C.
      sumOf(Anchor.SinksAfter, Role::Sink);
      capped(Anchor.SourcesBefore, [&](ShardEventId Src) {
        lhs(Src, Role::Source, Anchor.San, Role::Sanitizer);
        Rows.push(Sum);
        Rows.closeRow(Opts.C);
      });
    }
    // Fig. 4c: src(s) + snk(t) <= sum of sanitizers between s and t + C.
    for (const ShardSrcAnchor &Anchor : File.SrcAnchors) {
      if (!live(Anchor.Src))
        continue;
      capped(Anchor.Pairs, [&](const ShardSrcPair &Pair) {
        lhs(Anchor.Src, Role::Source, Pair.Snk, Role::Sink);
        for (ShardEventId Mid : Pair.Mids)
          if (live(Mid))
            Rows.push(termsOf(Mid, Role::Sanitizer));
        Rows.closeRow(Opts.C);
      });
    }
  }

private:
  bool live(ShardEventId E) const { return !Options[E].empty(); }
  static ShardEventId eventOf(ShardEventId E) { return E; }
  static ShardEventId eventOf(const ShardSrcPair &Pair) { return Pair.Snk; }

  /// Calls \p Emit on the live entries of \p Pairs, at most
  /// MaxPairsPerAnchor of them.
  template <class T, class Fn>
  void capped(const std::vector<T> &Pairs, Fn Emit) {
    size_t Emitted = 0;
    for (const T &Pair : Pairs) {
      if (!live(eventOf(Pair)))
        continue;
      if (++Emitted > Opts.MaxPairsPerAnchor)
        return;
      Emit(Pair);
    }
  }

  /// The averaged terms of (\p E, \p R), valid until the next call. An
  /// event recurs across many rows, so its terms are built into the pool
  /// once, at first use — where its variables would be interned anyway, so
  /// ids keep first-use order — and copied from there after.
  std::span<const solver::Term> termsOf(ShardEventId E, Role R) {
    std::span<const RepId> Reps = Options[E];
    uint32_t &At = BlockAt[E][static_cast<size_t>(R)];
    if (At == Unbuilt) {
      At = static_cast<uint32_t>(Pool.size());
      float Coef = 1.0f / static_cast<float>(Reps.size());
      for (RepId Rep : Reps)
        Pool.push_back({Out.Vars.varFor(Rep, R), Coef});
    }
    return {Pool.data() + At, Reps.size()};
  }

  /// Sets Sum to the terms of the live events of \p Ids in role \p R.
  void sumOf(const std::vector<ShardEventId> &Ids, Role R) {
    Sum.clear();
    for (ShardEventId E : Ids)
      if (live(E)) {
        std::span<const solver::Term> Terms = termsOf(E, R);
        Sum.insert(Sum.end(), Terms.begin(), Terms.end());
      }
  }

  /// Writes the Lhs of a row: (\p A, \p RA) + (\p B, \p RB).
  void lhs(ShardEventId A, Role RA, ShardEventId B, Role RB) {
    Out.Constraints.push(termsOf(A, RA));
    Out.Constraints.push(termsOf(B, RB));
    Out.Constraints.closeLhs();
  }

  static constexpr uint32_t Unbuilt = ~uint32_t(0);

  LocalOptions Options;
  const GenOptions &Opts;
  ConstraintBlock &Out;
  std::vector<solver::Term> Pool;
  /// Where each (event, role) block starts in Pool, or Unbuilt.
  std::vector<std::array<uint32_t, NumRoles>> BlockAt;
  /// The current anchor's sum (Fig. 4a/4b), shared by its rows' Rhs.
  std::vector<solver::Term> Sum;
};

/// The scaffolding before any row: each event's surviving backoff options
/// under the keep verdicts \p Keep (RepTable::keepVerdicts), the candidate
/// statistics, and the seed pins (§4.1), which intern the system's first
/// variables.
ConstraintSystem prepareSystem(const PropagationGraph &Graph,
                               const RepTable &Reps,
                               const spec::SeedSpec &Seed,
                               const std::vector<uint8_t> &Keep) {
  ConstraintSystem Sys;

  // Surviving backoff options: each distinct string of the graph resolves
  // once to its RepTable id, or to Dropped when that id is not kept (the
  // learning graph may be a collapsed one, with its own table); events
  // then filter their option ids.
  constexpr RepId Dropped = ~RepId(0);
  const std::vector<std::string> &Strings = Graph.repStrings();
  std::vector<RepId> KeptAs(Strings.size(), Dropped);
  for (RepId G = 0; G < Strings.size(); ++G) {
    RepId Id;
    if (Reps.lookup(Strings[G], Id) && Keep[Id])
      KeptAs[G] = Id;
  }
  size_t BackoffTotal = 0;
  Sys.EventReps.reserve(Graph.numEvents(), Graph.numOptions());
  for (const Event &E : Graph.events()) {
    size_t Kept = 0;
    for (RepId G : E.repIds())
      if (KeptAs[G] != Dropped) {
        Sys.EventReps.push(KeptAs[G]);
        ++Kept;
      }
    Sys.EventReps.close();
    Sys.NumCandidates += Kept != 0;
    BackoffTotal += Kept;
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

/// The ordered merge: walks \p Blocks in order, replays each local variable
/// table into Sys.Vars, remaps the block's rows to the global ids and
/// appends them, freeing each block as it goes. Local ids are in first-use
/// order, so this reproduces the exact ids a serial run over the same units
/// assigns — including variables created for sums that end up in no row.
void mergeBlocks(std::vector<ConstraintBlock> &Blocks, ConstraintSystem &Sys) {
  size_t Rows = 0, Terms = 0;
  for (const ConstraintBlock &Block : Blocks) {
    Rows += Block.Constraints.size();
    Terms += Block.Constraints.numTerms();
  }
  Sys.Constraints.reserve(Rows, Terms);
  std::vector<VarId> Map;
  for (ConstraintBlock &Block : Blocks) {
    Map.resize(Block.Vars.numVars());
    for (VarId L = 0; L < Block.Vars.numVars(); ++L)
      Map[L] = Sys.Vars.varFor(Block.Vars.repOf(L), Block.Vars.roleOf(L));
    Sys.Constraints.appendMapped(Block.Constraints, Map);
    Block = ConstraintBlock(); // Free as we go.
  }
}

/// Replays \p Shard under the current corpus state into \p Out: resolves
/// each event's surviving options through the keep verdicts \p Keep
/// (RepTable::keepVerdicts), then emits the shard's files in order.
void replayShard(const ConstraintShard &Shard, const RepTable &Reps,
                 const std::vector<uint8_t> &Keep, const GenOptions &Opts,
                 ConstraintBlock &Out) {
  // Option strings recur across events (every `flask.request.*` read in a
  // file carries the same backoff spellings), so each distinct string is
  // resolved once, the stored most-to-least-specific order preserved. An
  // unknown string (possible only with a shard/graph mismatch, which the
  // cache key rules out) is dropped, as direct generation drops it.
  constexpr RepId Dropped = ~RepId(0);
  std::vector<RepId> StrRep(Shard.Strings.size(), Dropped);
  for (size_t S = 0; S < Shard.Strings.size(); ++S) {
    RepId Id;
    if (Reps.lookup(Shard.Strings[S], Id) && Keep[Id])
      StrRep[S] = Id;
  }
  EventOptions Kept;
  for (const ShardEvent &E : Shard.Events) {
    for (ShardStrId S : E.Reps)
      if (StrRep[S] != Dropped)
        Kept.push(StrRep[S]);
    Kept.close();
  }
  LocalOptions Options(Kept.begin(), Kept.end());
  RowEmitter Emitter(std::move(Options), Opts, Out);
  for (const ShardFile &File : Shard.Files)
    Emitter.emit(File);
}

} // namespace

ConstraintSystem
seldon::constraints::generateConstraints(const PropagationGraph &Graph,
                                         const RepTable &Reps,
                                         const spec::SeedSpec &Seed,
                                         const GenOptions &Opts,
                                         ThreadPool *Pool,
                                         const Deadline *StopAt) {
  ConstraintSystem Sys = prepareSystem(
      Graph, Reps, Seed, Reps.keepVerdicts(Opts.RepCutoff, Seed.Blacklist));

  // Group events by file and emit each file into a private block, so
  // extraction touches no shared mutable state.
  std::vector<std::vector<EventId>> ByFile(Graph.files().size());
  for (const Event &E : Graph.events())
    ByFile[E.FileIdx].push_back(E.Id);

  std::vector<ConstraintBlock> PerFile(ByFile.size());
  auto ExtractFile = [&](size_t F, unsigned) {
    const std::vector<EventId> &Local = ByFile[F];
    if (Local.empty())
      return;
    // Cooperative cancellation at the shard boundary: a truncated system
    // would silently change the learned scores, so expiry is a hard error
    // the caller contextualizes (parallelFor rethrows it deterministically).
    if (StopAt && StopAt->expired())
      throw DeadlineError("deadline expired during constraint generation");
    if (fault::enabled())
      fault::maybeThrow(fault::Point::ConstraintGen, F);
    LocalOptions Options(Local.size());
    for (size_t L = 0; L < Local.size(); ++L)
      Options[L] = Sys.EventReps[Local[L]];
    ShardFile File = traverseFile(Graph, Local, &Options);
    RowEmitter(std::move(Options), Opts, PerFile[F]).emit(File);
  };
  if (Pool)
    Pool->parallelFor(ByFile.size(), ExtractFile);
  else
    for (size_t F = 0; F < ByFile.size(); ++F)
      ExtractFile(F, 0);

  mergeBlocks(PerFile, Sys);
  return Sys;
}

ConstraintShard
seldon::constraints::extractShard(const PropagationGraph &Graph,
                                  uint32_t FileBegin, uint32_t FileEnd) {
  ConstraintShard Shard;
  if (FileEnd <= FileBegin)
    return Shard;
  Shard.Files.resize(FileEnd - FileBegin);

  // Events are in file order, so the slice's events are one contiguous
  // run: find it by binary search, then group it by file.
  const auto Ids =
      std::views::iota(EventId(0), static_cast<EventId>(Graph.numEvents()));
  auto FirstOfFile = [&](uint32_t File) {
    return *std::ranges::partition_point(
        Ids, [&](EventId Id) { return Graph.event(Id).FileIdx < File; });
  };
  std::vector<std::vector<EventId>> ByFile(FileEnd - FileBegin);
  for (EventId Id = FirstOfFile(FileBegin), Last = FirstOfFile(FileEnd);
       Id < Last; ++Id)
    ByFile[Graph.event(Id).FileIdx - FileBegin].push_back(Id);

  // Renumber each file's local ids shard-wide, interning events and their
  // representation strings in the order the anchors reference them; a
  // string's shard id is found through its graph id.
  constexpr ShardStrId NoStr = ~ShardStrId(0);
  std::vector<ShardStrId> StrOf(Graph.repStrings().size(), NoStr);
  for (size_t F = 0; F < ByFile.size(); ++F) {
    const std::vector<EventId> &Local = ByFile[F];
    if (Local.empty())
      continue;
    ShardFile &File = Shard.Files[F] = traverseFile(Graph, Local, nullptr);
    constexpr ShardEventId Unseen = ~ShardEventId(0);
    std::vector<ShardEventId> ShardIdOf(Local.size(), Unseen);
    auto Ref = [&](ShardEventId &L) {
      ShardEventId &Id = ShardIdOf[L];
      if (Id == Unseen) {
        Id = static_cast<ShardEventId>(Shard.Events.size());
        ShardEvent &SE = Shard.Events.emplace_back();
        for (RepId Rep : Graph.event(Local[L]).repIds()) {
          ShardStrId &S = StrOf[Rep];
          if (S == NoStr) {
            S = static_cast<ShardStrId>(Shard.Strings.size());
            Shard.Strings.push_back(Graph.repStrings()[Rep]);
          }
          SE.Reps.push_back(S);
        }
      }
      L = Id;
    };
    for (ShardSanAnchor &Anchor : File.SanAnchors) {
      Ref(Anchor.San);
      for (ShardEventId &L : Anchor.SourcesBefore)
        Ref(L);
      for (ShardEventId &L : Anchor.SinksAfter)
        Ref(L);
    }
    for (ShardSrcAnchor &Anchor : File.SrcAnchors) {
      for (ShardSrcPair &Pair : Anchor.Pairs) {
        Ref(Pair.Snk);
        for (ShardEventId &L : Pair.Mids)
          Ref(L);
      }
      Ref(Anchor.Src);
    }
  }
  return Shard;
}

ConstraintSystem seldon::constraints::composeConstraints(
    const PropagationGraph &Graph, const RepTable &Reps,
    const spec::SeedSpec &Seed,
    const std::vector<const ConstraintShard *> &Shards,
    const GenOptions &Opts, ThreadPool *Pool, const Deadline *StopAt) {
  const std::vector<uint8_t> Keep =
      Reps.keepVerdicts(Opts.RepCutoff, Seed.Blacklist);
  ConstraintSystem Sys = prepareSystem(Graph, Reps, Seed, Keep);
  std::vector<ConstraintBlock> Blocks(Shards.size());
  auto ReplayOne = [&](size_t I, unsigned) {
    // All-or-nothing, like generation: a truncated composition would
    // change the learned scores silently (parallelFor rethrows the
    // expiry, and Sys is never returned).
    if (StopAt && StopAt->expired())
      throw DeadlineError("deadline expired during constraint composition");
    if (Shards[I])
      replayShard(*Shards[I], Reps, Keep, Opts, Blocks[I]);
  };
  if (Pool)
    Pool->parallelFor(Shards.size(), ReplayOne);
  else
    for (size_t I = 0; I < Shards.size(); ++I)
      ReplayOne(I, 0);
  mergeBlocks(Blocks, Sys);
  return Sys;
}
