//===- support/Trace.cpp - RAII stage spans -------------------------------===//

#include "support/Trace.h"

#include <utility>

using namespace seldon;
using namespace seldon::trace;

namespace {
/// Innermost open span on this thread; children prefix its path.
thread_local Span *CurrentSpan = nullptr;
} // namespace

Span::Span(metrics::Registry &Reg, std::string_view Name)
    : Reg(Reg), StartSeconds(Reg.now()), Record(Reg.enabled()),
      Parent(CurrentSpan) {
  // Nest only under spans of the same registry — a test's private registry
  // must not pick up path prefixes from the global one (and vice versa).
  if (Parent && &Parent->Reg != &Reg)
    Parent = nullptr;
  if (Parent) {
    Path.reserve(Parent->Path.size() + 1 + Name.size());
    Path += Parent->Path;
    Path += '/';
    Path += Name;
  } else {
    Path = std::string(Name);
  }
  CurrentSpan = this;
}

Span::~Span() { finish(); }

double Span::seconds() const {
  return DurationSeconds >= 0.0 ? DurationSeconds
                                : Reg.now() - StartSeconds;
}

double Span::finish() {
  if (DurationSeconds >= 0.0)
    return DurationSeconds;
  DurationSeconds = Reg.now() - StartSeconds;
  if (CurrentSpan == this)
    CurrentSpan = Parent;
  if (Record)
    Reg.recordSpan(Path, StartSeconds, DurationSeconds);
  return DurationSeconds;
}

RootScope::RootScope() : Hidden(std::exchange(CurrentSpan, nullptr)) {}

RootScope::~RootScope() { CurrentSpan = Hidden; }
