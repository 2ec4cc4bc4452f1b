//===- propgraph/PropagationGraph.cpp - Information-flow graph ------------===//

#include "propgraph/PropagationGraph.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

/// An empty slot of the string table's index.
constexpr RepId NoSlot = ~RepId(0);

/// \p Size as a 32-bit array offset; throws std::length_error past 32 bits.
uint32_t offsetOf(size_t Size) {
  if (Size > UINT32_MAX)
    throw std::length_error("propagation graph exceeds 2^32 entries");
  return static_cast<uint32_t>(Size);
}

} // namespace

uint32_t PropagationGraph::addFile(std::string Path) {
  Files.push_back(std::move(Path));
  return static_cast<uint32_t>(Files.size() - 1);
}

size_t PropagationGraph::probe(std::string_view Rep) const {
  const size_t Mask = Slots.size() - 1;
  size_t At = std::hash<std::string_view>{}(Rep) & Mask;
  while (Slots[At] != NoSlot && Table[Slots[At]] != Rep)
    At = (At + 1) & Mask;
  return At;
}

bool PropagationGraph::lookup(std::string_view Rep, RepId &IdOut) const {
  const RepId Id = Slots.empty() ? NoSlot : Slots[probe(Rep)];
  if (Id != NoSlot)
    IdOut = Id;
  return Id != NoSlot;
}

RepId PropagationGraph::intern(std::string_view Rep) {
  if (Slots.size() < 2 * (Table.size() + 1)) {
    Slots.assign(std::max<size_t>(16, 2 * Slots.size()), NoSlot);
    for (RepId Id = 0; Id < Table.size(); ++Id)
      Slots[probe(Table[Id])] = Id;
  }
  RepId &Slot = Slots[probe(Rep)];
  if (Slot == NoSlot) {
    Slot = offsetOf(Table.size());
    Table.emplace_back(Rep);
  }
  return Slot;
}

EventId PropagationGraph::openEvent(EventKind Kind, RoleMask Candidates,
                                    uint32_t FileIdx, pyast::SourceLoc Loc,
                                    size_t NumOptions) {
  assert(NumOptions != 0 && "events must carry at least one representation");
  assert(FileIdx < Files.size() && "event references unregistered file");
  const EventId Id = offsetOf(Records.size());
  offsetOf(Options.size() + NumOptions); // Offsets stay 32-bit.
  Records.push_back(
      {Kind, Candidates, FileIdx, Loc, static_cast<uint32_t>(Options.size())});
  if (SuccBegin.empty()) {
    SuccBegin.push_back(0);
    PredBegin.push_back(0);
  }
  SuccBegin.push_back(SuccBegin.back());
  PredBegin.push_back(PredBegin.back());
  return Id;
}

EventId PropagationGraph::addEvent(EventKind Kind, RoleMask Candidates,
                                   uint32_t FileIdx, pyast::SourceLoc Loc,
                                   std::span<const std::string_view> Reps) {
  const EventId Id = openEvent(Kind, Candidates, FileIdx, Loc, Reps.size());
  for (std::string_view Rep : Reps)
    Options.push_back(intern(Rep));
  return Id;
}

void PropagationGraph::addEdges(std::span<const Edge> New) {
  if (New.empty())
    return;
  const size_t N = numEvents();
  // Group the new edges by source, each group in the given order: after
  // the fill, Group[V] is where V's group ends and V + 1's begins.
  std::vector<uint32_t> Group(N + 1, 0);
  for (const Edge &E : New) {
    assert(E.From < N && E.To < N);
    ++Group[E.From + 1];
  }
  for (size_t V = 0; V < N; ++V)
    Group[V + 1] += Group[V];
  std::vector<uint32_t> ByFrom(New.size());
  for (uint32_t I = 0; I < New.size(); ++I)
    ByFrom[Group[New[I].From]++] = I;

  // Successors: each event's old list, then its new targets that are
  // neither itself nor already listed.
  std::vector<uint8_t> Kept(New.size(), 0);
  std::vector<uint32_t> Begin;
  Begin.reserve(N + 1);
  std::vector<EventId> Ids;
  Ids.reserve(SuccIds.size() + New.size());
  for (EventId V = 0; V < N; ++V) {
    Begin.push_back(offsetOf(Ids.size()));
    std::span<const EventId> Old = successors(V);
    Ids.insert(Ids.end(), Old.begin(), Old.end());
    for (uint32_t K = V == 0 ? 0 : Group[V - 1]; K < Group[V]; ++K) {
      const EventId To = New[ByFrom[K]].To;
      if (To == V || std::find(Ids.begin() + Begin[V], Ids.end(), To) !=
                         Ids.end())
        continue;
      Ids.push_back(To);
      Kept[ByFrom[K]] = 1;
    }
  }
  Begin.push_back(offsetOf(Ids.size()));
  SuccBegin = std::move(Begin);
  SuccIds = std::move(Ids);

  // Predecessors: each event's old list, then its kept new sources in the
  // given order. Group becomes the fill cursor.
  std::fill(Group.begin(), Group.end(), 0);
  for (EventId V = 0; V < N; ++V)
    Group[V + 1] = PredBegin[V + 1] - PredBegin[V];
  for (uint32_t I = 0; I < New.size(); ++I)
    Group[New[I].To + 1] += Kept[I];
  for (size_t V = 0; V < N; ++V)
    Group[V + 1] += Group[V];
  std::vector<EventId> PIds(Group[N]);
  for (EventId V = 0; V < N; ++V)
    for (EventId From : predecessors(V))
      PIds[Group[V]++] = From;
  for (uint32_t I = 0; I < New.size(); ++I)
    if (Kept[I])
      PIds[Group[New[I].To]++] = New[I].From;
  // Each cursor now sits at its list's end, the next list's begin.
  PredBegin[0] = 0;
  std::copy(Group.begin(), Group.end() - 1, PredBegin.begin() + 1);
  PredIds = std::move(PIds);
}

void PropagationGraph::append(PropagationGraph Other) {
  // Offsets stay 32-bit.
  offsetOf(numEvents() + Other.numEvents());
  offsetOf(Options.size() + Other.Options.size());
  offsetOf(SuccIds.size() + Other.SuccIds.size());
  const uint32_t FileOffset = offsetOf(Files.size());
  const EventId IdOffset = static_cast<EventId>(numEvents());
  const uint32_t OptOffset = static_cast<uint32_t>(Options.size());
  for (std::string &F : Other.Files)
    Files.push_back(std::move(F));
  const size_t OtherN = Other.numEvents();
  if (OtherN == 0)
    return;

  std::vector<RepId> Map(Other.Table.size());
  for (RepId Id = 0; Id < Other.Table.size(); ++Id)
    Map[Id] = intern(Other.Table[Id]);
  for (Record R : Other.Records) {
    R.FileIdx += FileOffset;
    R.OptBegin += OptOffset;
    Records.push_back(R);
  }
  for (RepId Id : Other.Options)
    Options.push_back(Map[Id]);

  if (SuccBegin.empty()) {
    SuccBegin.push_back(0);
    PredBegin.push_back(0);
  }
  const uint32_t SuccBase = static_cast<uint32_t>(SuccIds.size());
  for (size_t V = 1; V <= OtherN; ++V)
    SuccBegin.push_back(SuccBase + Other.SuccBegin[V]);
  for (EventId To : Other.SuccIds)
    SuccIds.push_back(To + IdOffset);

  // Predecessors in source-event order: Other's edges counted by target,
  // then placed visiting sources in id order. Other's predecessor offsets
  // are reused as the cursors.
  std::vector<uint32_t> &At = Other.PredBegin;
  std::fill(At.begin(), At.end(), 0);
  for (EventId To : Other.SuccIds)
    ++At[To + 1];
  for (size_t V = 0; V < OtherN; ++V)
    At[V + 1] += At[V];
  const uint32_t PredBase = static_cast<uint32_t>(PredIds.size());
  for (size_t V = 1; V <= OtherN; ++V)
    PredBegin.push_back(PredBase + At[V]);
  PredIds.resize(PredBase + Other.SuccIds.size());
  for (EventId From = 0; From < OtherN; ++From)
    for (EventId To : Other.successors(From))
      PredIds[PredBase + At[To]++] = From + IdOffset;
}

void PropagationGraph::reserve(size_t NumEvents, size_t NumFiles,
                               size_t NumOptions, size_t NumEdges) {
  Records.reserve(Records.size() + NumEvents);
  SuccBegin.reserve(SuccBegin.size() + NumEvents + 1);
  PredBegin.reserve(PredBegin.size() + NumEvents + 1);
  Options.reserve(Options.size() + NumOptions);
  SuccIds.reserve(SuccIds.size() + NumEdges);
  PredIds.reserve(PredIds.size() + NumEdges);
  Files.reserve(Files.size() + NumFiles);
}

namespace {

/// The searches' visited marks, one array per thread, reused across calls:
/// an event is seen in the current search iff its stamp equals the
/// search's epoch, so no search allocates or clears a whole-graph bitmap.
struct VisitMarks {
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 0;
};
thread_local VisitMarks Marks;

/// BFS from \p Start over the CSR adjacency (\p Begin, \p Ids); returns
/// the events visited, in order, without \p Start.
std::vector<EventId> search(EventId Start, const std::vector<uint32_t> &Begin,
                            const std::vector<EventId> &Ids) {
  std::vector<uint32_t> &Stamp = Marks.Stamp;
  if (Stamp.size() < Begin.size())
    Stamp.resize(Begin.size(), 0);
  if (++Marks.Epoch == 0) { // Wrapped: no stale stamp may match.
    std::fill(Stamp.begin(), Stamp.end(), 0);
    Marks.Epoch = 1;
  }
  const uint32_t Epoch = Marks.Epoch;
  std::vector<EventId> Out;
  auto Visit = [&](EventId Cur) {
    for (uint32_t K = Begin[Cur]; K < Begin[Cur + 1]; ++K)
      if (Stamp[Ids[K]] != Epoch) {
        Stamp[Ids[K]] = Epoch;
        Out.push_back(Ids[K]);
      }
  };
  Stamp[Start] = Epoch;
  Visit(Start);
  for (size_t Head = 0; Head < Out.size(); ++Head)
    Visit(Out[Head]);
  return Out;
}

} // namespace

std::vector<EventId> PropagationGraph::reachableFrom(EventId Start) const {
  return search(Start, SuccBegin, SuccIds);
}

std::vector<EventId> PropagationGraph::reachingTo(EventId Start) const {
  return search(Start, PredBegin, PredIds);
}

PropagationGraph PropagationGraph::collapseByRep() const {
  // One node per distinct primary representation, numbered by first
  // occurrence: its first member's kind and location, the union of the
  // members' candidate masks, and the union of their options in first
  // occurrence order, gathered before the node is written.
  struct Node {
    EventId First;
    RoleMask Candidates;
    std::vector<RepId> Options;
  };
  std::vector<Node> Nodes;
  std::vector<EventId> NodeOfPrimary(Table.size(), InvalidEvent);
  std::vector<EventId> OldToNew(numEvents());
  for (EventId Id = 0; Id < numEvents(); ++Id) {
    std::span<const RepId> Reps = event(Id).repIds();
    EventId &NewId = NodeOfPrimary[Reps.front()];
    if (NewId == InvalidEvent) {
      NewId = static_cast<EventId>(Nodes.size());
      Nodes.push_back({Id, 0, {}});
    }
    OldToNew[Id] = NewId;
    Node &Merged = Nodes[NewId];
    Merged.Candidates |= Records[Id].Candidates;
    for (RepId R : Reps)
      if (std::find(Merged.Options.begin(), Merged.Options.end(), R) ==
          Merged.Options.end())
        Merged.Options.push_back(R);
  }

  // The nodes' options are ids into this graph's table, which the
  // collapsed graph keeps.
  PropagationGraph Out;
  Out.Table = Table;
  Out.Slots = Slots;
  // All merged events nominally live in one synthetic file; per-file
  // provenance is meaningless after contraction.
  const uint32_t FileIdx = Out.addFile("<collapsed>");
  for (const Node &N : Nodes) {
    Out.openEvent(Records[N.First].Kind, N.Candidates, FileIdx,
                  Records[N.First].Loc, N.Options.size());
    Out.Options.insert(Out.Options.end(), N.Options.begin(),
                       N.Options.end());
  }
  std::vector<Edge> Edges;
  Edges.reserve(numEdges());
  for (EventId From = 0; From < numEvents(); ++From)
    for (EventId To : successors(From))
      Edges.push_back({OldToNew[From], OldToNew[To]});
  Out.addEdges(Edges);
  return Out;
}

bool PropagationGraph::isAcyclic() const {
  // Kahn's algorithm: the graph is acyclic iff all nodes get popped.
  std::vector<size_t> InDegree(numEvents(), 0);
  for (EventId To : SuccIds)
    ++InDegree[To];
  std::vector<EventId> Queue;
  for (EventId Id = 0; Id < numEvents(); ++Id)
    if (InDegree[Id] == 0)
      Queue.push_back(Id);
  size_t Popped = 0;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    EventId Cur = Queue[Head];
    ++Popped;
    for (EventId Next : successors(Cur))
      if (--InDegree[Next] == 0)
        Queue.push_back(Next);
  }
  return Popped == numEvents();
}
