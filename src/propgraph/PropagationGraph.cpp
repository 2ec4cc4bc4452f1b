//===- propgraph/PropagationGraph.cpp - Information-flow graph ------------===//

#include "propgraph/PropagationGraph.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace seldon;
using namespace seldon::propgraph;

uint32_t PropagationGraph::addFile(std::string Path) {
  Files.push_back(std::move(Path));
  return static_cast<uint32_t>(Files.size() - 1);
}

EventId PropagationGraph::addEvent(Event E) {
  assert(!E.Reps.empty() && "events must carry at least one representation");
  assert(E.FileIdx < Files.size() && "event references unregistered file");
  E.Id = static_cast<EventId>(Events.size());
  Events.push_back(std::move(E));
  Succ.emplace_back();
  Pred.emplace_back();
  return Events.back().Id;
}

void PropagationGraph::addEdge(EventId From, EventId To) {
  assert(From < Events.size() && To < Events.size());
  if (From == To)
    return;
  std::vector<EventId> &Out = Succ[From];
  if (std::find(Out.begin(), Out.end(), To) != Out.end())
    return;
  Out.push_back(To);
  Pred[To].push_back(From);
  ++EdgeCount;
}

void PropagationGraph::append(PropagationGraph Other) {
  const uint32_t FileOffset = static_cast<uint32_t>(Files.size());
  const EventId IdOffset = static_cast<EventId>(Events.size());
  for (std::string &F : Other.Files)
    Files.push_back(std::move(F));
  for (Event &E : Other.Events) {
    E.Id = static_cast<EventId>(Events.size());
    E.FileIdx += FileOffset;
    Events.push_back(std::move(E));
  }
  for (std::vector<EventId> &Out : Other.Succ) {
    for (EventId &To : Out)
      To += IdOffset;
    EdgeCount += Out.size();
    Succ.push_back(std::move(Out));
  }
  // Each predecessor list keeps its buffer and is refilled in From order.
  for (std::vector<EventId> &In : Other.Pred) {
    In.clear();
    Pred.push_back(std::move(In));
  }
  for (EventId From = IdOffset; From < Events.size(); ++From)
    for (EventId To : Succ[From])
      Pred[To].push_back(From);
}

void PropagationGraph::reserve(size_t NumEvents, size_t NumFiles) {
  Events.reserve(Events.size() + NumEvents);
  Succ.reserve(Succ.size() + NumEvents);
  Pred.reserve(Pred.size() + NumEvents);
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

/// BFS from \p Start over \p Adjacent; returns the events visited, in
/// order, without \p Start.
std::vector<EventId>
search(EventId Start, const std::vector<std::vector<EventId>> &Adjacent) {
  std::vector<uint32_t> &Stamp = Marks.Stamp;
  if (Stamp.size() < Adjacent.size())
    Stamp.resize(Adjacent.size(), 0);
  if (++Marks.Epoch == 0) { // Wrapped: no stale stamp may match.
    std::fill(Stamp.begin(), Stamp.end(), 0);
    Marks.Epoch = 1;
  }
  const uint32_t Epoch = Marks.Epoch;
  std::vector<EventId> Out;
  auto Visit = [&](EventId Cur) {
    for (EventId Next : Adjacent[Cur])
      if (Stamp[Next] != Epoch) {
        Stamp[Next] = Epoch;
        Out.push_back(Next);
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
  return search(Start, Succ);
}

std::vector<EventId> PropagationGraph::reachingTo(EventId Start) const {
  return search(Start, Pred);
}

PropagationGraph PropagationGraph::collapseByRep() const {
  PropagationGraph Out;
  // All merged events nominally live in one synthetic file; per-file
  // provenance is meaningless after contraction.
  uint32_t FileIdx = Out.addFile("<collapsed>");

  std::unordered_map<std::string, EventId> RepToNew;
  std::vector<EventId> OldToNew(Events.size(), InvalidEvent);

  for (const Event &E : Events) {
    auto It = RepToNew.find(E.primaryRep());
    if (It != RepToNew.end()) {
      EventId NewId = It->second;
      OldToNew[E.Id] = NewId;
      Event &Merged = Out.event(NewId);
      Merged.Candidates |= E.Candidates;
      for (const std::string &R : E.Reps)
        if (std::find(Merged.Reps.begin(), Merged.Reps.end(), R) ==
            Merged.Reps.end())
          Merged.Reps.push_back(R);
      continue;
    }
    Event Copy = E;
    Copy.FileIdx = FileIdx;
    EventId NewId = Out.addEvent(std::move(Copy));
    RepToNew.emplace(E.primaryRep(), NewId);
    OldToNew[E.Id] = NewId;
  }

  for (EventId From = 0; From < Events.size(); ++From)
    for (EventId To : Succ[From])
      Out.addEdge(OldToNew[From], OldToNew[To]);
  return Out;
}

bool PropagationGraph::isAcyclic() const {
  // Kahn's algorithm: the graph is acyclic iff all nodes get popped.
  std::vector<size_t> InDegree(Events.size(), 0);
  for (const std::vector<EventId> &Out : Succ)
    for (EventId To : Out)
      ++InDegree[To];
  std::vector<EventId> Queue;
  for (EventId Id = 0; Id < Events.size(); ++Id)
    if (InDegree[Id] == 0)
      Queue.push_back(Id);
  size_t Popped = 0;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    EventId Cur = Queue[Head];
    ++Popped;
    for (EventId Next : Succ[Cur])
      if (--InDegree[Next] == 0)
        Queue.push_back(Next);
  }
  return Popped == Events.size();
}
