//===- support/Metrics.h - Counters, gauges, timers, series ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small thread-safe metrics registry: named counters, gauges,
/// timer-histograms, and sampled series, plus the stage-span records
/// emitted by support/Trace.h.
///
/// Design rules:
///
///  * **Near-zero overhead when disabled.** Every update checks one
///    relaxed atomic flag and returns; no locks, no allocation. Callers on
///    hot paths should additionally gate on `Registry::enabled()` so that
///    the metric *lookup* (which takes the registry mutex and may intern
///    the name) is skipped too.
///  * **Handles are stable.** `counter()` / `gauge()` / `timer()` /
///    `series()` intern the name on first use and always return the same
///    object; references stay valid for the registry's lifetime, so hot
///    loops can hoist the lookup.
///  * **Updates are lock-free.** Counters, gauges, and timers use atomics
///    (CAS loops for min/max); series take a short mutex but decimate
///    themselves to a bounded sample buffer, so they stay cheap no matter
///    how many points are recorded.
///  * **Metrics never feed back into computation.** Enabling the registry
///    cannot change any learned score or report: instrumented code only
///    writes, and the pipeline never reads a metric.
///
/// The process-wide registry (`Registry::global()`) starts disabled; the
/// CLI enables it for `--metrics` / `--metrics-out`, and the benches enable
/// it to source their JSON numbers from the same instrumentation layer.
/// Tests construct private registries.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_METRICS_H
#define SELDON_SUPPORT_METRICS_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace metrics {

class Registry;

/// Monotonically increasing event count (files parsed, solver iterations,
/// worklist pops). add() is a relaxed fetch_add — safe from any thread.
class Counter {
public:
  void add(uint64_t N = 1) {
    if (Enabled->load(std::memory_order_relaxed))
      Value_.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const { return Value_.load(std::memory_order_relaxed); }

private:
  friend class Registry;
  explicit Counter(const std::atomic<bool> *Enabled) : Enabled(Enabled) {}
  void reset() { Value_.store(0, std::memory_order_relaxed); }

  std::atomic<uint64_t> Value_{0};
  const std::atomic<bool> *Enabled;
};

/// Last-write-wins instantaneous value (candidate counts, compile stats).
class Gauge {
public:
  void set(double V) {
    if (Enabled->load(std::memory_order_relaxed))
      Value_.store(V, std::memory_order_relaxed);
  }
  double value() const { return Value_.load(std::memory_order_relaxed); }

private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool> *Enabled) : Enabled(Enabled) {}
  void reset() { Value_.store(0.0, std::memory_order_relaxed); }

  std::atomic<double> Value_{0.0};
  const std::atomic<bool> *Enabled;
};

/// Duration histogram: count / total / min / max over recorded samples
/// (per-file parse times, per-project graph builds). Lock-free; min/max
/// use CAS loops so concurrent record() calls from pool workers are safe.
class TimerStat {
public:
  void record(double Seconds);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double totalSeconds() const {
    return Sum.load(std::memory_order_relaxed);
  }
  /// 0 when no sample was recorded.
  double minSeconds() const;
  double maxSeconds() const;
  double meanSeconds() const {
    uint64_t N = count();
    return N == 0 ? 0.0 : totalSeconds() / static_cast<double>(N);
  }

private:
  friend class Registry;
  explicit TimerStat(const std::atomic<bool> *Enabled) : Enabled(Enabled) {}
  void reset();

  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0.0};
  std::atomic<double> Min{0.0}; ///< Valid only when Count > 0.
  std::atomic<double> Max{0.0};
  const std::atomic<bool> *Enabled;
};

/// A bounded, self-decimating sample sequence (solver convergence
/// telemetry). Every record() counts; the stored samples keep every
/// Stride-th value and, when the buffer fills, drop every other stored
/// sample and double the stride — so the buffer always holds a uniformly
/// spaced subsample of the full sequence, bounded by the capacity.
class Series {
public:
  void record(double V);

  /// Total points recorded (including decimated-away ones).
  uint64_t total() const;
  /// Distance between consecutive stored samples in record() calls.
  uint64_t stride() const;
  std::vector<double> samples() const;

private:
  friend class Registry;
  Series(const std::atomic<bool> *Enabled, size_t Capacity)
      : Capacity(Capacity < 2 ? 2 : Capacity), Enabled(Enabled) {}
  void reset();

  mutable std::mutex Mutex;
  size_t Capacity;
  uint64_t Stride = 1;
  uint64_t Total = 0;
  std::vector<double> Samples;
  const std::atomic<bool> *Enabled;
};

/// One finished trace span (see support/Trace.h).
struct SpanRecord {
  std::string Path;       ///< Nested "parent/child" span name.
  double StartSeconds;    ///< Offset from the registry's construction.
  double DurationSeconds; ///< Wall time between construction and finish.
};

/// Thread-safe named metric registry with a JSON / plain-text snapshot.
class Registry {
public:
  /// Span records a registry keeps; see recordSpan().
  static constexpr size_t SpanCapacity = 4096;

  /// A registry starts enabled unless constructed otherwise; the global()
  /// registry starts disabled so uninstrumented runs pay one relaxed load
  /// per metric site.
  explicit Registry(bool StartEnabled = true) : Enabled(StartEnabled) {}

  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// Interns \p Name on first use; always returns the same object. The
  /// returned reference stays valid for the registry's lifetime.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  TimerStat &timer(std::string_view Name);
  /// \p Capacity bounds the stored samples (decimation keeps the series
  /// uniform); it only applies when the series is first created.
  Series &series(std::string_view Name, size_t Capacity = 512);

  /// Appends a finished span (called by trace::Span). The log is a fixed
  /// ring of the most recent SpanCapacity records, so a long-lived process
  /// (seldond records five per re-solve) stays bounded; each record it
  /// overwrites is counted in spansDropped().
  void recordSpan(std::string Path, double StartSeconds,
                  double DurationSeconds);
  /// The kept spans, oldest first (finish order).
  std::vector<SpanRecord> spans() const;
  /// Spans overwritten by the ring since construction or reset().
  uint64_t spansDropped() const;

  /// Seconds since the registry was constructed (span start offsets).
  double now() const;

  /// Zeroes every value and drops spans/series samples. Handles stay
  /// valid.
  void reset();

  /// Machine-readable snapshot:
  /// {"enabled":…, "counters":{…}, "gauges":{…}, "timers":{…},
  ///  "series":{…}, "spans_dropped":N, "spans":[…]} — metric names
  /// sorted, kept spans in finish order.
  std::string toJson() const;

  /// Human-readable snapshot (aligned tables per metric kind; empty kinds
  /// are omitted).
  std::string renderText() const;

  /// The process-wide registry, constructed disabled.
  static Registry &global();

private:
  /// The span ring unrolled oldest first; the caller holds Mutex.
  std::vector<SpanRecord> orderedSpans() const;

  std::atomic<bool> Enabled;
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<TimerStat>, std::less<>> Timers;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> AllSeries;
  /// Span ring: grows to SpanCapacity, then SpanHead marks the oldest
  /// record, which the next recordSpan() overwrites.
  std::vector<SpanRecord> Spans;
  size_t SpanHead = 0;
  uint64_t SpansDropped = 0;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

} // namespace metrics
} // namespace seldon

#endif // SELDON_SUPPORT_METRICS_H
