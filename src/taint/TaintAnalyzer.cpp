//===- taint/TaintAnalyzer.cpp - Taint-flow violation detection -----------===//

#include "taint/TaintAnalyzer.h"

#include "support/Metrics.h"

#include <algorithm>
#include <unordered_set>

using namespace seldon;
using namespace seldon::taint;
using namespace seldon::propgraph;

bool RoleResolver::hasRole(const Event &E, Role R) const {
  if (!maskHas(E.Candidates, R))
    return false;
  if (Exact)
    for (const std::string &Rep : E.Reps)
      if (Exact->has(Rep, R))
        return true;
  if (Learned && Learned->selectRole(E.Reps, R, Threshold).has_value())
    return true;
  return false;
}

std::vector<RoleMask>
TaintAnalyzer::resolveRoles(const RoleResolver &Roles) const {
  std::vector<RoleMask> Out(Graph.numEvents(), 0);
  for (const Event &E : Graph.events()) {
    RoleMask Mask = 0;
    for (Role R : {Role::Source, Role::Sanitizer, Role::Sink})
      if (Roles.hasRole(E, R))
        Mask |= maskOf(R);
    Out[E.Id] = Mask;
  }
  return Out;
}

std::vector<Violation>
TaintAnalyzer::analyze(const RoleResolver &Roles) const {
  std::vector<Violation> Out;
  std::vector<RoleMask> Mask = resolveRoles(Roles);

  // One search per source, over arrays allocated once per call: an event
  // is seen in the current search iff its stamp equals the search's epoch,
  // so no search clears a whole-graph array. Parent is written when an
  // event is first seen, so a path walk reads only this search's entries.
  std::vector<EventId> Parent(Graph.numEvents(), InvalidEvent);
  std::vector<uint32_t> Stamp(Graph.numEvents(), 0);
  std::vector<EventId> Queue;
  uint32_t Epoch = 0;

  for (const Event &SrcEvent : Graph.events()) {
    if (!maskHas(Mask[SrcEvent.Id], Role::Source))
      continue;
    EventId Src = SrcEvent.Id;
    if (++Epoch == 0) { // Wrapped: no stale stamp may match.
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }

    // Forward BFS that never expands *through* sanitizers: a sanitizer
    // event absorbs the taint (its output is clean).
    Queue.assign(1, Src);
    Stamp[Src] = Epoch;
    Parent[Src] = InvalidEvent;

    for (size_t Head = 0; Head < Queue.size(); ++Head) {
      EventId Cur = Queue[Head];
      for (EventId Next : Graph.successors(Cur)) {
        if (Stamp[Next] == Epoch)
          continue;
        Stamp[Next] = Epoch;
        Parent[Next] = Cur;
        if (maskHas(Mask[Next], Role::Sanitizer))
          continue; // Taint stops here.
        if (maskHas(Mask[Next], Role::Sink)) {
          Violation V;
          V.Source = Src;
          V.Sink = Next;
          V.FileIdx = SrcEvent.FileIdx;
          for (EventId Walk = Next; Walk != InvalidEvent;
               Walk = Parent[Walk])
            V.Path.push_back(Walk);
          std::reverse(V.Path.begin(), V.Path.end());
          Out.push_back(std::move(V));
        }
        Queue.push_back(Next);
      }
    }
  }

  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.counter("taint.analyses").add();
    Reg.counter("taint.violations").add(Out.size());
  }
  return Out;
}

size_t
seldon::taint::countAffectedProjects(const PropagationGraph &Graph,
                                     const std::vector<Violation> &Violations) {
  std::unordered_set<std::string> Projects;
  for (const Violation &V : Violations) {
    const std::string &Path = Graph.files()[V.FileIdx];
    size_t Slash = Path.find('/');
    Projects.insert(Slash == std::string::npos ? Path : Path.substr(0, Slash));
  }
  return Projects.size();
}
