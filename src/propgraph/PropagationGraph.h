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
/// The graph is a few flat arrays, so holding the global graph costs bytes
/// per event rather than heap blocks per event:
///
///  * one record per event (kind, candidate mask, file index, location and
///    where its options start);
///  * every event's options as RepIds over one table of the distinct
///    option strings. Built, appended and decoded graphs keep the table in
///    first-occurrence order (event order, then option order); a collapsed
///    graph keeps its source's table, so its option ids are its source's.
///    A RepTable counts over this table and has no ids of its own;
///  * successors and predecessors in CSR form (offsets plus ids).
///    Successors keep insertion order. Predecessors keep insertion order
///    too, which after append() and decodeGraph() is source-event order.
///
/// Readers get views by value: event() returns an Event whose Reps read the
/// table, successors() and predecessors() return spans. A view lives until
/// the graph is next written (addFile, addEvent, addEdge(s), append,
/// reserve): a write may reallocate the arrays it points into.
///
/// Also implements vertex contraction (collapsing events with the same
/// primary representation) used to reproduce Merlin's collapsed graphs
/// (paper §6.4, Fig. 7/8).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PROPGRAPH_PROPAGATIONGRAPH_H
#define SELDON_PROPGRAPH_PROPAGATIONGRAPH_H

#include "propgraph/Event.h"
#include "support/IndexIterator.h"

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace propgraph {

/// A flow edge From -> To, as a writer hands edges to addEdges().
struct Edge {
  EventId From;
  EventId To;
};

/// A directed information-flow graph over events.
class PropagationGraph {
public:
  /// Registers a source file; events reference it by index.
  uint32_t addFile(std::string Path);

  /// Adds an event whose representation options are \p Reps, most to least
  /// specific (at least one), interning each into the table, and returns
  /// its id.
  EventId addEvent(EventKind Kind, RoleMask Candidates, uint32_t FileIdx,
                   pyast::SourceLoc Loc,
                   std::span<const std::string_view> Reps);
  EventId addEvent(EventKind Kind, RoleMask Candidates, uint32_t FileIdx,
                   pyast::SourceLoc Loc,
                   std::initializer_list<std::string_view> Reps) {
    return addEvent(Kind, Candidates, FileIdx, Loc,
                    std::span<const std::string_view>(Reps.begin(),
                                                      Reps.size()));
  }

  /// Adds the flow edges \p Edges in order, as if one at a time: a
  /// self-edge, or an edge already present, is silently dropped. Each call
  /// rebuilds the adjacency arrays once, so a writer with many edges
  /// collects them and passes them together.
  void addEdges(std::span<const Edge> Edges);
  /// Adds the flow edge \p From -> \p To, as addEdges() does.
  void addEdge(EventId From, EventId To) {
    const Edge One{From, To};
    addEdges({&One, 1});
  }

  /// Event \p Id's view.
  Event event(EventId Id) const {
    const Record &R = Records[Id];
    const uint32_t End =
        Id + 1 < Records.size() ? Records[Id + 1].OptBegin
                                : static_cast<uint32_t>(Options.size());
    return {Id,
            R.Kind,
            {{Options.data() + R.OptBegin, Options.data() + End},
             Table.data()},
            R.Candidates,
            R.FileIdx,
            R.Loc};
  }

  /// Every event's view, by value, in id order.
  using EventIterator =
      IndexIterator<PropagationGraph, Event, &PropagationGraph::event>;
  class EventRange {
  public:
    explicit EventRange(const PropagationGraph &Graph) : Graph(&Graph) {}
    EventIterator begin() const { return {Graph, 0}; }
    EventIterator end() const { return {Graph, Graph->numEvents()}; }
    size_t size() const { return Graph->numEvents(); }

  private:
    const PropagationGraph *Graph;
  };
  EventRange events() const { return EventRange(*this); }

  const std::vector<std::string> &files() const { return Files; }
  const std::string &fileOf(const Event &E) const { return Files[E.FileIdx]; }

  /// The distinct representation strings, indexed by RepId (see the file
  /// comment for their order).
  const std::vector<std::string> &repStrings() const { return Table; }
  /// Looks \p Rep up in the table; returns true and sets \p IdOut when it
  /// is there.
  bool lookup(std::string_view Rep, RepId &IdOut) const;
  /// Option slots over all events (the sum of every event's Reps.size()).
  size_t numOptions() const { return Options.size(); }

  /// Successors (events receiving flow from \p Id), in insertion order.
  std::span<const EventId> successors(EventId Id) const {
    return {SuccIds.data() + SuccBegin[Id], SuccIds.data() + SuccBegin[Id + 1]};
  }
  /// Predecessors (events flowing into \p Id).
  std::span<const EventId> predecessors(EventId Id) const {
    return {PredIds.data() + PredBegin[Id], PredIds.data() + PredBegin[Id + 1]};
  }

  size_t numEvents() const { return Records.size(); }
  size_t numEdges() const { return SuccIds.size(); }

  /// Appends \p Other into this graph, remapping ids, file indices and
  /// representation ids (each of Other's table strings is looked up once;
  /// unseen ones join the table in Other's order). The event sets stay
  /// disjoint, matching the global graph of §4. Files are moved, so a
  /// caller that is done with its graph passes it with std::move. The
  /// appended events' predecessors are rebuilt in source-event order.
  void append(PropagationGraph Other);

  /// Makes room for \p NumEvents more events, \p NumFiles more files,
  /// \p NumOptions more option slots and \p NumEdges more edges, so a
  /// merge of known size appends without regrowing.
  void reserve(size_t NumEvents, size_t NumFiles, size_t NumOptions = 0,
               size_t NumEdges = 0);

  /// Forward BFS from \p Start; returns every event reachable from it in
  /// visit order, never \p Start itself, even on a cycle.
  std::vector<EventId> reachableFrom(EventId Start) const;

  /// Backward BFS from \p Start; returns every event reaching it, as
  /// reachableFrom does.
  std::vector<EventId> reachingTo(EventId Start) const;

  /// Vertex contraction: merges all events with equal primary
  /// representation into one node (Merlin's collapsed graph, §6.4).
  /// Candidate masks are unioned; the merged node keeps the union of all
  /// members' representation option lists (first occurrence order). The
  /// collapsed graph keeps this graph's string table, so each option id
  /// names the same string in both.
  PropagationGraph collapseByRep() const;

  /// True if the graph contains no directed cycle (the builder's output is
  /// acyclic by construction, §5.2; collapsed graphs may contain cycles).
  bool isAcyclic() const;

private:
  struct Record {
    EventKind Kind = EventKind::Call;
    RoleMask Candidates = 0;
    uint32_t FileIdx = 0;
    pyast::SourceLoc Loc;
    /// The event's first option in Options; its last ends where the next
    /// event's start (or at Options.size()).
    uint32_t OptBegin = 0;
  };
  static_assert(sizeof(Record) == 20, "one event's record is 20 bytes");

  /// Table id of \p Rep, adding it to the table when unseen.
  RepId intern(std::string_view Rep);
  /// The slot holding \p Rep's id, or the free slot that ends its probe.
  /// Slots must not be empty.
  size_t probe(std::string_view Rep) const;
  /// Appends the record of an event whose \p NumOptions options the caller
  /// then pushes onto Options, and returns its id.
  EventId openEvent(EventKind Kind, RoleMask Candidates, uint32_t FileIdx,
                    pyast::SourceLoc Loc, size_t NumOptions);

  std::vector<Record> Records;
  std::vector<RepId> Options;
  /// The distinct option strings, and an open-addressed index over them:
  /// each slot holds a table id or NoSlot, at most half the slots are
  /// used, and the slot count is a power of two.
  std::vector<std::string> Table;
  std::vector<RepId> Slots;
  /// CSR adjacency: event E's successors are SuccIds[SuccBegin[E] ..
  /// SuccBegin[E + 1]), and likewise its predecessors. The offset arrays
  /// hold numEvents() + 1 entries, or none before the first event.
  std::vector<uint32_t> SuccBegin, PredBegin;
  std::vector<EventId> SuccIds, PredIds;
  std::vector<std::string> Files;
};

} // namespace propgraph
} // namespace seldon

#endif // SELDON_PROPGRAPH_PROPAGATIONGRAPH_H
