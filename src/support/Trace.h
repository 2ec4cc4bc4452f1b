//===- support/Trace.h - RAII stage spans ------------------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII trace spans that nest into "parent/child" paths and record into a
/// metrics::Registry. The spans are where stage wall times live; callers
/// read them from Registry::spans() (or --metrics-out).
///
///   trace::Span Solve(metrics::Registry::global(), "solve");
///   ... run stage ...
///   Solve.finish(); // or let the destructor end it
///
/// seconds() and finish() return the elapsed time whether or not the
/// registry records.
///
/// Nesting is tracked per thread: a span constructed while another span on
/// the same thread is open becomes its child ("session/solve"). Spans are
/// only appended to the registry when it was enabled at construction, so a
/// disabled registry costs a steady_clock read and nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_TRACE_H
#define SELDON_SUPPORT_TRACE_H

#include "support/Metrics.h"

#include <string>
#include <string_view>

namespace seldon {
namespace trace {

/// An RAII wall-clock span. Records a metrics::SpanRecord on finish() (or
/// destruction) when the registry was enabled at construction time.
class Span {
public:
  Span(metrics::Registry &Reg, std::string_view Name);
  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Seconds elapsed since construction (after finish(): the final
  /// duration). Always valid, even when the registry is disabled.
  double seconds() const;

  /// Ends the span now, records it, and returns the duration. Idempotent.
  double finish();

  /// The full nested path, e.g. "session/solve".
  const std::string &path() const { return Path; }

private:
  metrics::Registry &Reg;
  std::string Path;
  double StartSeconds;
  double DurationSeconds = -1.0; ///< < 0 while the span is open.
  bool Record;                   ///< Registry was enabled at construction.
  Span *Parent;                  ///< Enclosing span on this thread, if any.
};

/// Hides this thread's open spans while it lives: spans opened meanwhile
/// are roots, as on a thread with none open. A parallelFor caller runs its
/// own share under one, so a loop body's span paths do not depend on which
/// participant ran it.
class RootScope {
public:
  RootScope();
  ~RootScope();

  RootScope(const RootScope &) = delete;
  RootScope &operator=(const RootScope &) = delete;

private:
  Span *Hidden;
};

} // namespace trace
} // namespace seldon

#endif // SELDON_SUPPORT_TRACE_H
