//===- constraints/ConstraintShard.cpp - Per-project constraints ----------===//

#include "constraints/ConstraintShard.h"

#include "support/Deadline.h"
#include "support/ThreadPool.h"

#include <array>

#include <unordered_map>
#include <unordered_set>

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

/// Shard-local interning of strings and events during extraction.
class ShardInterner {
public:
  explicit ShardInterner(ConstraintShard &Shard) : Shard(Shard) {}

  ShardEventId internEvent(const Event &E) {
    auto It = EventIds.find(E.Id);
    if (It != EventIds.end())
      return It->second;
    ShardEventId Id = static_cast<ShardEventId>(Shard.Events.size());
    ShardEvent SE;
    SE.Reps.reserve(E.Reps.size());
    for (const std::string &Rep : E.Reps)
      SE.Reps.push_back(internString(Rep));
    Shard.Events.push_back(std::move(SE));
    EventIds.emplace(E.Id, Id);
    return Id;
  }

private:
  ShardStrId internString(const std::string &Text) {
    auto It = StringIds.find(Text);
    if (It != StringIds.end())
      return It->second;
    ShardStrId Id = static_cast<ShardStrId>(Shard.Strings.size());
    Shard.Strings.push_back(Text);
    StringIds.emplace(Text, Id);
    return Id;
  }

  ConstraintShard &Shard;
  std::unordered_map<EventId, ShardEventId> EventIds;
  std::unordered_map<std::string, ShardStrId> StringIds;
};

/// The per-file reachability pass of FileExtractor (ConstraintGen.cpp),
/// minus all filtering: candidates are taken from the role mask alone, and
/// every anchor is recorded with its full upstream/downstream sets so the
/// merge can filter later. Must mirror FileExtractor's traversal order
/// exactly — anchors and their member lists are stored in the order serial
/// generation visits them.
class ShardFileExtractor {
public:
  ShardFileExtractor(const PropagationGraph &Graph,
                     const std::vector<EventId> &Local,
                     ShardInterner &Interner, ShardFile &Out)
      : Graph(Graph), Local(Local), Interner(Interner), Out(Out) {}

  void run() {
    for (EventId Id : Local) {
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
  void extractSanitizerAnchored() {
    for (EventId San : Sanitizers) {
      const std::unordered_set<EventId> &Fwd = forwardSet(San);
      std::unordered_set<EventId> Bwd = backwardSet(San);

      std::vector<EventId> SinksAfter = membersOf(Sinks, Fwd);
      std::vector<EventId> SourcesBefore = membersOf(Sources, Bwd);
      if (SinksAfter.empty() && SourcesBefore.empty())
        continue;

      ShardSanAnchor Anchor;
      Anchor.San = ref(San);
      Anchor.SourcesBefore = refAll(SourcesBefore);
      Anchor.SinksAfter = refAll(SinksAfter);
      Out.SanAnchors.push_back(std::move(Anchor));
    }
  }

  void extractSourceSinkPairs() {
    for (EventId Src : Sources) {
      const std::unordered_set<EventId> &Fwd = forwardSet(Src);
      std::vector<EventId> SinksAfter = membersOf(Sinks, Fwd);
      std::vector<EventId> SansAfter = membersOf(Sanitizers, Fwd);
      ShardSrcAnchor Anchor;
      for (EventId Snk : SinksAfter) {
        if (Snk == Src)
          continue;
        ShardSrcPair Pair;
        Pair.Snk = ref(Snk);
        for (EventId Mid : SansAfter) {
          if (Mid == Snk || Mid == Src)
            continue;
          if (forwardSet(Mid).count(Snk))
            Pair.Mids.push_back(ref(Mid));
        }
        Anchor.Pairs.push_back(std::move(Pair));
      }
      if (!Anchor.Pairs.empty()) {
        Anchor.Src = ref(Src);
        Out.SrcAnchors.push_back(std::move(Anchor));
      }
    }
  }

  ShardEventId ref(EventId Id) { return Interner.internEvent(Graph.event(Id)); }

  std::vector<ShardEventId> refAll(const std::vector<EventId> &Ids) {
    std::vector<ShardEventId> Out;
    Out.reserve(Ids.size());
    for (EventId Id : Ids)
      Out.push_back(ref(Id));
    return Out;
  }

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

  const PropagationGraph &Graph;
  const std::vector<EventId> &Local;
  ShardInterner &Interner;
  ShardFile &Out;
  std::vector<EventId> Sources, Sanitizers, Sinks;
  std::unordered_map<EventId, std::unordered_set<EventId>> FwdCache;
};

} // namespace

ConstraintShard
seldon::constraints::extractShard(const PropagationGraph &Graph,
                                  uint32_t FileBegin, uint32_t FileEnd) {
  ConstraintShard Shard;
  if (FileEnd <= FileBegin)
    return Shard;
  Shard.Files.resize(FileEnd - FileBegin);

  // Group the slice's events by file in event-id order — the same grouping
  // generateConstraints uses, so anchor member lists come out in candidate
  // order.
  std::vector<std::vector<EventId>> ByFile(FileEnd - FileBegin);
  for (const Event &E : Graph.events())
    if (E.FileIdx >= FileBegin && E.FileIdx < FileEnd)
      ByFile[E.FileIdx - FileBegin].push_back(E.Id);

  ShardInterner Interner(Shard);
  for (size_t F = 0; F < ByFile.size(); ++F) {
    if (ByFile[F].empty())
      continue;
    ShardFileExtractor Extractor(Graph, ByFile[F], Interner, Shard.Files[F]);
    Extractor.run();
  }
  return Shard;
}

namespace {

/// Replays \p Shard under the current corpus state into \p Out: filters
/// each event's options by the §4.3 cutoff (global counts in \p Reps) and
/// the seed blacklist, skips dead anchors, caps surviving pairs per
/// anchor, and emits the resulting constraints over Out.Vars — a
/// shard-local table interned in the exact order serial generation would
/// intern into the global one, so mergeBlocks() reproduces its ids.
void replayShard(const ConstraintShard &Shard, const RepTable &Reps,
                 const spec::SeedSpec &Seed, const GenOptions &Opts,
                 ConstraintBlock &Out) {
  // Resolve each shard event's surviving backoff options once: global
  // frequency cutoff (§4.3) + blacklist (§7.2), preserving the stored
  // most-to-least-specific order — exactly the filter generateConstraints
  // applies per event. An unknown representation (possible only with a
  // shard/graph mismatch; the cache key rules that out) is simply dropped,
  // like backoffOptions drops unknown strings.
  // Option strings recur across events (every `flask.request.*` read in a
  // file carries the same backoff spellings), so resolve each distinct
  // interned string once and fan the verdict out to the referencing
  // events.
  std::vector<RepId> StrRep(Shard.Strings.size());
  std::vector<uint8_t> StrKept(Shard.Strings.size(), 0);
  for (size_t S = 0; S < Shard.Strings.size(); ++S) {
    const std::string &Rep = Shard.Strings[S];
    RepId Id;
    if (!Reps.lookup(Rep, Id))
      continue;
    if (Reps.occurrences(Id) < Opts.RepCutoff)
      continue;
    if (Seed.isBlacklisted(Rep))
      continue;
    StrRep[S] = Id;
    StrKept[S] = 1;
  }
  std::vector<std::vector<RepId>> Kept(Shard.Events.size());
  for (size_t E = 0; E < Shard.Events.size(); ++E)
    for (ShardStrId S : Shard.Events[E].Reps)
      if (StrKept[S])
        Kept[E].push_back(StrRep[S]);

  auto Alive = [&](ShardEventId E) { return !Kept[E].empty(); };
  auto Surviving = [&](const std::vector<ShardEventId> &Ids) {
    std::vector<ShardEventId> Live;
    for (ShardEventId Id : Ids)
      if (Alive(Id))
        Live.push_back(Id);
    return Live;
  };
  // Mirrors FileExtractor::appendAvgTerms. Events recur across many
  // constraints (a source anchor's option terms appear in every pair it
  // forms), so the term block for an (event, role) is built once and
  // appended by copy afterwards — the build happens lazily at the block's
  // first use, which is exactly where an uncached replay would have issued
  // its first varFor calls, so variable interning order — and with it
  // every id in the composed system — is unchanged.
  std::vector<std::array<std::vector<solver::Term>, propgraph::NumRoles>>
      TermCache(Shard.Events.size());
  std::vector<std::array<bool, propgraph::NumRoles>> CacheReady(
      Shard.Events.size(), {false, false, false});
  auto TermsOf = [&](ShardEventId E,
                     Role R) -> const std::vector<solver::Term> & {
    size_t RI = static_cast<size_t>(R);
    std::vector<solver::Term> &Block = TermCache[E][RI];
    if (!CacheReady[E][RI]) {
      const std::vector<RepId> &Options = Kept[E];
      float Coef = 1.0f / static_cast<float>(Options.size());
      Block.reserve(Options.size());
      for (RepId Rep : Options)
        Block.push_back({Out.Vars.varFor(Rep, R), Coef});
      CacheReady[E][RI] = true;
    }
    return Block;
  };
  auto AppendAvg = [&](std::vector<solver::Term> &Terms, ShardEventId E,
                       Role R) {
    const std::vector<solver::Term> &Block = TermsOf(E, R);
    Terms.insert(Terms.end(), Block.begin(), Block.end());
  };
  auto SumTerms = [&](const std::vector<ShardEventId> &Ids, Role R) {
    std::vector<solver::Term> Terms;
    for (ShardEventId Id : Ids)
      AppendAvg(Terms, Id, R);
    return Terms;
  };

  for (const ShardFile &File : Shard.Files) {
    // Fig. 4a / 4b — an anchor whose sanitizer was filtered out never
    // entered the serial candidate list, so it contributes nothing.
    for (const ShardSanAnchor &Anchor : File.SanAnchors) {
      if (!Alive(Anchor.San))
        continue;
      std::vector<ShardEventId> SinksAfter = Surviving(Anchor.SinksAfter);
      std::vector<ShardEventId> SourcesBefore =
          Surviving(Anchor.SourcesBefore);
      if (SinksAfter.empty() && SourcesBefore.empty())
        continue;

      std::vector<solver::Term> SourceSum =
          SumTerms(SourcesBefore, Role::Source);
      size_t Pairs = 0;
      for (ShardEventId Snk : SinksAfter) {
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        solver::LinearConstraint LC;
        AppendAvg(LC.Lhs, Anchor.San, Role::Sanitizer);
        AppendAvg(LC.Lhs, Snk, Role::Sink);
        LC.Rhs = SourceSum;
        LC.C = Opts.C;
        Out.Constraints.push_back(std::move(LC));
      }

      std::vector<solver::Term> SinkSum = SumTerms(SinksAfter, Role::Sink);
      Pairs = 0;
      for (ShardEventId Src : SourcesBefore) {
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        solver::LinearConstraint LC;
        AppendAvg(LC.Lhs, Src, Role::Source);
        AppendAvg(LC.Lhs, Anchor.San, Role::Sanitizer);
        LC.Rhs = SinkSum;
        LC.C = Opts.C;
        Out.Constraints.push_back(std::move(LC));
      }
    }

    // Fig. 4c — the pair cap counts surviving sinks only; stored pairs
    // already exclude Snk == Src (serial skips those before counting).
    for (const ShardSrcAnchor &Anchor : File.SrcAnchors) {
      if (!Alive(Anchor.Src))
        continue;
      size_t Pairs = 0;
      for (const ShardSrcPair &Pair : Anchor.Pairs) {
        if (!Alive(Pair.Snk))
          continue;
        if (++Pairs > Opts.MaxPairsPerAnchor)
          break;
        solver::LinearConstraint LC;
        AppendAvg(LC.Lhs, Anchor.Src, Role::Source);
        AppendAvg(LC.Lhs, Pair.Snk, Role::Sink);
        for (ShardEventId Mid : Pair.Mids)
          if (Alive(Mid))
            AppendAvg(LC.Rhs, Mid, Role::Sanitizer);
        LC.C = Opts.C;
        Out.Constraints.push_back(std::move(LC));
      }
    }
  }
}

} // namespace

ConstraintSystem seldon::constraints::composeConstraints(
    const PropagationGraph &Graph, const RepTable &Reps,
    const spec::SeedSpec &Seed,
    const std::vector<const ConstraintShard *> &Shards,
    const GenOptions &Opts, ThreadPool *Pool, const Deadline *StopAt) {
  ConstraintSystem Sys = prepareSystem(Graph, Reps, Seed, Opts, Pool);
  std::vector<ConstraintBlock> Blocks(Shards.size());
  auto ReplayOne = [&](size_t I, unsigned) {
    // All-or-nothing, like generation: a truncated composition would
    // change the learned scores silently (parallelFor rethrows the
    // expiry, and Sys is never returned).
    if (StopAt && StopAt->expired())
      throw DeadlineError("deadline expired during constraint composition");
    if (Shards[I])
      replayShard(*Shards[I], Reps, Seed, Opts, Blocks[I]);
  };
  if (Pool)
    Pool->parallelFor(Shards.size(), ReplayOne);
  else
    for (size_t I = 0; I < Shards.size(); ++I)
      ReplayOne(I, 0);
  mergeBlocks(Blocks, Sys);
  return Sys;
}
