//===- constraints/ConstraintGen.cpp - Fig. 4 constraint extraction -------===//
//
// The one implementation of the Fig. 4 templates behind ConstraintGen.h and
// ConstraintShard.h. One per-file traversal records a file's anchors as a
// ShardFile over file-local event ids; one emitter turns anchors into rows,
// given each local event's surviving backoff options, and writes them
// straight into a flat row store. generateConstraints() is the only
// builder of a system: each file filters its events' option ids through
// the system's keep verdicts, then emits its cached anchors or traverses
// its candidates. extractShard() runs the traversal unfiltered, so its
// anchors stay valid under any corpus.
//
//===----------------------------------------------------------------------===//

#include "constraints/ConstraintGen.h"
#include "constraints/ConstraintShard.h"

#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>
#include <ranges>
#include <span>
#include <stdexcept>

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

/// The surviving backoff options of each event of \p Local: its option
/// ids that \p Kept keeps, most to least specific, held in \p Store.
LocalOptions survivingOptions(const PropagationGraph &Graph,
                              const std::vector<EventId> &Local,
                              const std::vector<uint8_t> &Kept,
                              std::vector<RepId> &Store) {
  std::vector<uint32_t> Begin;
  Begin.reserve(Local.size() + 1);
  for (EventId Id : Local) {
    Begin.push_back(static_cast<uint32_t>(Store.size()));
    for (RepId Rep : Graph.event(Id).repIds())
      if (Kept[Rep])
        Store.push_back(Rep);
  }
  Begin.push_back(static_cast<uint32_t>(Store.size()));
  LocalOptions Options(Local.size());
  for (size_t L = 0; L < Local.size(); ++L)
    Options[L] = {Store.data() + Begin[L], Store.data() + Begin[L + 1]};
  return Options;
}

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
  File.NumEvents = static_cast<uint32_t>(Local.size());
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

/// The rows one file emitted on its own, over a block-local variable table
/// whose ids follow first use within the block.
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

/// The scaffolding before any row: the keep verdicts \p Kept
/// (RepTable::keepVerdicts), the candidate statistics, and the seed pins
/// (§4.1), which intern the system's first variables.
ConstraintSystem prepareSystem(const PropagationGraph &Graph,
                               const RepTable &Reps,
                               const spec::SeedSpec &Seed,
                               std::vector<uint8_t> Kept) {
  ConstraintSystem Sys;
  Sys.Kept = std::move(Kept);
  size_t BackoffTotal = 0;
  for (const Event &E : Graph.events()) {
    size_t Survivors = 0;
    for (RepId Id : E.repIds())
      Survivors += Sys.Kept[Id];
    Sys.NumCandidates += Survivors != 0;
    BackoffTotal += Survivors;
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

/// The first event of file \p File, or numEvents() when no event lies in
/// it or after it. \p Graph's events are in file order, so a binary search
/// finds it.
EventId firstEventOf(const PropagationGraph &Graph, uint32_t File) {
  const auto Ids =
      std::views::iota(EventId(0), static_cast<EventId>(Graph.numEvents()));
  return *std::ranges::partition_point(
      Ids, [&](EventId Id) { return Graph.event(Id).FileIdx < File; });
}

} // namespace

ConstraintSystem seldon::constraints::generateConstraints(
    const PropagationGraph &Graph, const RepTable &Reps,
    const spec::SeedSpec &Seed, const GenOptions &Opts, ThreadPool *Pool,
    const Deadline *StopAt, std::span<const ShardFile *const> Cached) {
  assert((Cached.empty() || Cached.size() == Graph.files().size()) &&
         "one cached entry per file");
  if (!Reps.sharesTableWith(Graph))
    throw std::invalid_argument("generateConstraints: the graph's string "
                                "table is not its RepTable's");
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
    std::vector<RepId> Survivors;
    LocalOptions Options =
        survivingOptions(Graph, Local, Sys.Kept, Survivors);
    // Cached anchors were traversed without the candidate filter; the
    // emitter drops the dead events they hold.
    const ShardFile *Anchors = Cached.empty() ? nullptr : Cached[F];
    ShardFile Traversed;
    if (!Anchors) {
      Traversed = traverseFile(Graph, Local, &Options);
      Anchors = &Traversed;
    }
    assert(Anchors->NumEvents == Local.size() &&
           "cached anchors must fit their file");
    RowEmitter(std::move(Options), Opts, PerFile[F]).emit(*Anchors);
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
  // run, and each file's events a contiguous run within it.
  std::vector<EventId> Local;
  const EventId Last = firstEventOf(Graph, FileEnd);
  for (EventId Id = firstEventOf(Graph, FileBegin); Id < Last;) {
    const uint32_t File = Graph.event(Id).FileIdx;
    Local.clear();
    for (; Id < Last && Graph.event(Id).FileIdx == File; ++Id)
      Local.push_back(Id);
    Shard.Files[File - FileBegin] = traverseFile(Graph, Local, nullptr);
  }
  return Shard;
}

bool seldon::constraints::shardFits(const ConstraintShard &Shard,
                                    const PropagationGraph &Graph,
                                    uint32_t FileBegin, uint32_t FileEnd) {
  if (FileEnd < FileBegin || Shard.Files.size() != FileEnd - FileBegin)
    return false;
  EventId Begin = firstEventOf(Graph, FileBegin);
  for (uint32_t F = FileBegin; F < FileEnd; ++F) {
    const EventId End = firstEventOf(Graph, F + 1);
    if (Shard.Files[F - FileBegin].NumEvents != End - Begin)
      return false;
    Begin = End;
  }
  return true;
}
