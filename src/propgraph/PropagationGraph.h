//===- propgraph/PropagationGraph.h - Information-flow graph -----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The propagation graph G = (V, E) of paper §3: nodes are events, directed
/// edges are information flow. Individual per-file graphs are appended into
/// one global graph for learning (§4, "Learning over a Global Propagation
/// Graph"); events of different files never share edges.
///
/// Also implements vertex contraction (collapsing events with the same
/// primary representation) used to reproduce Merlin's collapsed graphs
/// (paper §6.4, Fig. 7/8).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PROPGRAPH_PROPAGATIONGRAPH_H
#define SELDON_PROPGRAPH_PROPAGATIONGRAPH_H

#include "propgraph/Event.h"

#include <string>
#include <vector>

namespace seldon {
namespace propgraph {

/// A directed information-flow graph over events.
class PropagationGraph {
public:
  /// Registers a source file; events reference it by index.
  uint32_t addFile(std::string Path);

  /// Adds an event and returns its id. \p E.Id is assigned by the graph.
  EventId addEvent(Event E);

  /// Adds a flow edge \p From -> \p To. Self-edges and duplicates are
  /// silently dropped.
  void addEdge(EventId From, EventId To);

  const std::vector<Event> &events() const { return Events; }
  const Event &event(EventId Id) const { return Events[Id]; }
  Event &event(EventId Id) { return Events[Id]; }
  const std::vector<std::string> &files() const { return Files; }
  const std::string &fileOf(const Event &E) const { return Files[E.FileIdx]; }

  /// Successors (events receiving flow from \p Id).
  const std::vector<EventId> &successors(EventId Id) const {
    return Succ[Id];
  }
  /// Predecessors (events flowing into \p Id).
  const std::vector<EventId> &predecessors(EventId Id) const {
    return Pred[Id];
  }

  size_t numEvents() const { return Events.size(); }
  size_t numEdges() const { return EdgeCount; }

  /// Appends \p Other into this graph, remapping ids and file indices.
  /// The event sets stay disjoint, matching the global graph of §4.
  /// Events, files and successor lists are moved, so a caller that is done
  /// with its graph passes it with std::move; predecessor lists are
  /// rebuilt in source-event order.
  void append(PropagationGraph Other);

  /// Makes room for \p NumEvents more events and \p NumFiles more files,
  /// so a merge of known size appends without regrowing.
  void reserve(size_t NumEvents, size_t NumFiles);

  /// Forward BFS from \p Start; returns every event reachable from it in
  /// visit order, never \p Start itself, even on a cycle.
  std::vector<EventId> reachableFrom(EventId Start) const;

  /// Backward BFS from \p Start; returns every event reaching it, as
  /// reachableFrom does.
  std::vector<EventId> reachingTo(EventId Start) const;

  /// Vertex contraction: merges all events with equal primary
  /// representation into one node (Merlin's collapsed graph, §6.4).
  /// Candidate masks are unioned; the merged node keeps the union of all
  /// members' representation option lists (first occurrence order).
  PropagationGraph collapseByRep() const;

  /// True if the graph contains no directed cycle (the builder's output is
  /// acyclic by construction, §5.2; collapsed graphs may contain cycles).
  bool isAcyclic() const;

private:
  std::vector<Event> Events;
  std::vector<std::vector<EventId>> Succ;
  std::vector<std::vector<EventId>> Pred;
  std::vector<std::string> Files;
  size_t EdgeCount = 0;
};

} // namespace propgraph
} // namespace seldon

#endif // SELDON_PROPGRAPH_PROPAGATIONGRAPH_H
