//===- propgraph/Event.h - Propagation-graph events --------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Events and roles of the propagation graph (paper §3.1-§3.3, §5.1).
///
/// An event is a program action that can propagate information: a function
/// call, an object read (attribute load / subscript), or a formal parameter.
/// Each event carries its representation options Rep(v): strings ordered
/// from most to least specific (paper §3.2, §4.3), and a mask of the roles
/// it is a candidate for (§5.1: object reads and formal parameters can only
/// be sources; calls can be sources, sanitizers, or sinks).
///
/// An Event is a view into its PropagationGraph, which stores events flat
/// (see PropagationGraph.h): the graph returns it by value, and it lives
/// until that graph is next written.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PROPGRAPH_EVENT_H
#define SELDON_PROPGRAPH_EVENT_H

#include "pyast/Ast.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>

namespace seldon {
namespace propgraph {

/// The three taint roles an API can take.
enum class Role : uint8_t { Source = 0, Sanitizer = 1, Sink = 2 };

/// Number of distinct roles.
inline constexpr int NumRoles = 3;

/// Printable name ("source", "sanitizer", "sink").
const char *roleName(Role R);

/// Bitmask over roles.
using RoleMask = uint8_t;

inline constexpr RoleMask maskOf(Role R) {
  return static_cast<RoleMask>(1u << static_cast<unsigned>(R));
}
inline constexpr RoleMask SourceMask = maskOf(Role::Source);
inline constexpr RoleMask SanitizerMask = maskOf(Role::Sanitizer);
inline constexpr RoleMask SinkMask = maskOf(Role::Sink);
inline constexpr RoleMask AllRolesMask =
    SourceMask | SanitizerMask | SinkMask;

inline bool maskHas(RoleMask Mask, Role R) { return (Mask & maskOf(R)) != 0; }

/// Kinds of propagation-graph events (§5.1). CallArgument events exist
/// only in argument-position-sensitive mode (the differentiation of sink
/// roles by argument that paper §3.3 leaves as future work): one per
/// argument of a call, representing "argument i of API f".
enum class EventKind : uint8_t { Call, ObjectRead, FormalParam, CallArgument };

/// Printable name for an event kind.
const char *eventKindName(EventKind Kind);

/// Dense event identifier within one PropagationGraph.
using EventId = uint32_t;

/// Sentinel for "no event".
inline constexpr EventId InvalidEvent = ~static_cast<EventId>(0);

/// Dense id of an interned representation string: an index into a
/// PropagationGraph's table of distinct strings, or into a RepTable (whose
/// ids equal the table's for the graph it counted).
using RepId = uint32_t;

/// An event's representation options, most to least specific: ids into
/// the graph's string table, read as the strings.
class RepRange {
public:
  /// Yields each option's string.
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::string *;
    using reference = const std::string &;

    iterator() = default;
    iterator(const RepId *At, const std::string *Table)
        : At(At), Table(Table) {}

    const std::string &operator*() const { return Table[*At]; }
    iterator &operator++() {
      ++At;
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++At;
      return Old;
    }
    bool operator==(const iterator &Other) const { return At == Other.At; }

  private:
    const RepId *At = nullptr;
    const std::string *Table = nullptr;
  };

  RepRange() = default;
  RepRange(std::span<const RepId> Ids, const std::string *Table)
      : Ids(Ids), Table(Table) {}

  size_t size() const { return Ids.size(); }
  bool empty() const { return Ids.empty(); }
  const std::string &operator[](size_t I) const { return Table[Ids[I]]; }
  const std::string &front() const { return Table[Ids.front()]; }
  iterator begin() const { return {Ids.data(), Table}; }
  iterator end() const { return {Ids.data() + Ids.size(), Table}; }
  /// The options' ids in the graph's string table.
  std::span<const RepId> ids() const { return Ids; }

private:
  std::span<const RepId> Ids;
  const std::string *Table = nullptr;
};

/// A node of the propagation graph.
struct Event {
  EventId Id = InvalidEvent;
  EventKind Kind = EventKind::Call;
  /// Representation options, ordered most specific -> least specific.
  /// Always non-empty.
  RepRange Reps;
  /// Roles this event may take (subset determined by Kind and blacklist).
  RoleMask Candidates = 0;
  /// Index into PropagationGraph::files().
  uint32_t FileIdx = 0;
  pyast::SourceLoc Loc;

  /// The most specific representation.
  const std::string &primaryRep() const { return Reps.front(); }
  /// The options' ids in the graph's string table, most to least specific.
  std::span<const RepId> repIds() const { return Reps.ids(); }
};

} // namespace propgraph
} // namespace seldon

#endif // SELDON_PROPGRAPH_EVENT_H
