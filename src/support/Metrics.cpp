//===- support/Metrics.cpp - Counters, gauges, timers, series -------------===//

#include "support/Metrics.h"

#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <sstream>

using namespace seldon;
using namespace seldon::metrics;

namespace {

/// CAS-loop atomic add for doubles (std::atomic<double>::fetch_add is
/// C++20 but spelled out here so the memory orders are explicit).
void atomicAdd(std::atomic<double> &A, double V) {
  double Cur = A.load(std::memory_order_relaxed);
  while (!A.compare_exchange_weak(Cur, Cur + V,
                                  std::memory_order_relaxed))
    ;
}

void atomicMin(std::atomic<double> &A, double V) {
  double Cur = A.load(std::memory_order_relaxed);
  while (V < Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

void atomicMax(std::atomic<double> &A, double V) {
  double Cur = A.load(std::memory_order_relaxed);
  while (V > Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

/// Compact numeric rendering that is always valid JSON (no inf/nan).
std::string jsonNumber(double V) {
  if (!(V == V) || V > 1e300 || V < -1e300)
    return "0";
  std::string S = formatString("%.9g", V);
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// TimerStat
//===----------------------------------------------------------------------===//

void TimerStat::record(double Seconds) {
  if (!Enabled->load(std::memory_order_relaxed))
    return;
  // First sample initializes min/max: CAS the count from 0 is racy to
  // detect, so min/max use sentinel-free CAS loops against a published
  // first value. Count is bumped last so readers seeing Count > 0 see a
  // valid min/max (ordering is best-effort; snapshots are advisory).
  uint64_t Prev = Count.fetch_add(1, std::memory_order_relaxed);
  atomicAdd(Sum, Seconds);
  if (Prev == 0) {
    // Publish the first sample; racing records fix it up below.
    double Zero = 0.0;
    Min.compare_exchange_strong(Zero, Seconds, std::memory_order_relaxed);
    Zero = 0.0;
    Max.compare_exchange_strong(Zero, Seconds, std::memory_order_relaxed);
  }
  atomicMin(Min, Seconds);
  atomicMax(Max, Seconds);
}

double TimerStat::minSeconds() const {
  return count() == 0 ? 0.0 : Min.load(std::memory_order_relaxed);
}

double TimerStat::maxSeconds() const {
  return count() == 0 ? 0.0 : Max.load(std::memory_order_relaxed);
}

void TimerStat::reset() {
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0.0, std::memory_order_relaxed);
  Min.store(0.0, std::memory_order_relaxed);
  Max.store(0.0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Series
//===----------------------------------------------------------------------===//

void Series::record(double V) {
  if (!Enabled->load(std::memory_order_relaxed))
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Total % Stride == 0) {
    Samples.push_back(V);
    if (Samples.size() >= Capacity) {
      // Decimate: keep every other stored sample, double the stride. The
      // survivors stay uniformly spaced at the new stride.
      size_t Out = 0;
      for (size_t I = 0; I < Samples.size(); I += 2)
        Samples[Out++] = Samples[I];
      Samples.resize(Out);
      Stride *= 2;
    }
  }
  ++Total;
}

uint64_t Series::total() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Total;
}

uint64_t Series::stride() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stride;
}

std::vector<double> Series::samples() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Samples;
}

void Series::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Samples.clear();
  Stride = 1;
  Total = 0;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Counter &Registry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters
             .emplace(std::string(Name),
                      std::unique_ptr<Counter>(new Counter(&Enabled)))
             .first;
  return *It->second;
}

Gauge &Registry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges
             .emplace(std::string(Name),
                      std::unique_ptr<Gauge>(new Gauge(&Enabled)))
             .first;
  return *It->second;
}

TimerStat &Registry::timer(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Timers.find(Name);
  if (It == Timers.end())
    It = Timers
             .emplace(std::string(Name),
                      std::unique_ptr<TimerStat>(new TimerStat(&Enabled)))
             .first;
  return *It->second;
}

Series &Registry::series(std::string_view Name, size_t Capacity) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = AllSeries.find(Name);
  if (It == AllSeries.end())
    It = AllSeries
             .emplace(std::string(Name), std::unique_ptr<Series>(
                                             new Series(&Enabled, Capacity)))
             .first;
  return *It->second;
}

void Registry::recordSpan(std::string Path, double StartSeconds,
                          double DurationSeconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  SpanRecord Record{std::move(Path), StartSeconds, DurationSeconds};
  if (Spans.size() < SpanCapacity) {
    Spans.push_back(std::move(Record));
    return;
  }
  Spans[SpanHead] = std::move(Record);
  SpanHead = (SpanHead + 1) % SpanCapacity;
  ++SpansDropped;
}

std::vector<SpanRecord> Registry::orderedSpans() const {
  std::vector<SpanRecord> Out;
  Out.reserve(Spans.size());
  Out.insert(Out.end(), Spans.begin() + SpanHead, Spans.end());
  Out.insert(Out.end(), Spans.begin(), Spans.begin() + SpanHead);
  return Out;
}

std::vector<SpanRecord> Registry::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return orderedSpans();
}

uint64_t Registry::spansDropped() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return SpansDropped;
}

double Registry::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, T] : Timers)
    T->reset();
  for (auto &[Name, S] : AllSeries)
    S->reset();
  Spans.clear();
  SpanHead = 0;
  SpansDropped = 0;
}

std::string Registry::toJson() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Out = "{\n";
  Out += formatString("  \"enabled\": %s,\n",
                      enabled() ? "true" : "false");

  Out += "  \"counters\": {";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    Out += formatString("%s\n    \"%s\": %llu", First ? "" : ",",
                        jsonEscape(Name).c_str(),
                        static_cast<unsigned long long>(C->value()));
    First = false;
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"gauges\": {";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    Out += formatString("%s\n    \"%s\": %s", First ? "" : ",",
                        jsonEscape(Name).c_str(),
                        jsonNumber(G->value()).c_str());
    First = false;
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"timers\": {";
  First = true;
  for (const auto &[Name, T] : Timers) {
    Out += formatString(
        "%s\n    \"%s\": {\"count\": %llu, \"total_seconds\": %s, "
        "\"mean_seconds\": %s, \"min_seconds\": %s, \"max_seconds\": %s}",
        First ? "" : ",", jsonEscape(Name).c_str(),
        static_cast<unsigned long long>(T->count()),
        jsonNumber(T->totalSeconds()).c_str(),
        jsonNumber(T->meanSeconds()).c_str(),
        jsonNumber(T->minSeconds()).c_str(),
        jsonNumber(T->maxSeconds()).c_str());
    First = false;
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"series\": {";
  First = true;
  for (const auto &[Name, S] : AllSeries) {
    Out += formatString(
        "%s\n    \"%s\": {\"count\": %llu, \"stride\": %llu, "
        "\"samples\": [",
        First ? "" : ",", jsonEscape(Name).c_str(),
        static_cast<unsigned long long>(S->total()),
        static_cast<unsigned long long>(S->stride()));
    std::vector<double> Samples = S->samples();
    for (size_t I = 0; I < Samples.size(); ++I) {
      if (I)
        Out += ", ";
      Out += jsonNumber(Samples[I]);
    }
    Out += "]}";
    First = false;
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += formatString("  \"spans_dropped\": %llu,\n",
                      static_cast<unsigned long long>(SpansDropped));
  Out += "  \"spans\": [";
  First = true;
  for (const SpanRecord &S : orderedSpans()) {
    Out += formatString("%s\n    {\"path\": \"%s\", \"start_seconds\": %s, "
                        "\"duration_seconds\": %s}",
                        First ? "" : ",", jsonEscape(S.Path).c_str(),
                        jsonNumber(S.StartSeconds).c_str(),
                        jsonNumber(S.DurationSeconds).c_str());
    First = false;
  }
  Out += First ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}

std::string Registry::renderText() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ostringstream OS;

  if (!Spans.empty()) {
    TablePrinter T({"span", "start s", "duration s"});
    for (const SpanRecord &S : orderedSpans())
      T.addRow({S.Path, formatString("%.3f", S.StartSeconds),
                formatString("%.3f", S.DurationSeconds)});
    T.print(OS);
    if (SpansDropped > 0)
      OS << formatString("(%llu older span(s) dropped; the log keeps the "
                         "most recent %zu)\n",
                         static_cast<unsigned long long>(SpansDropped),
                         SpanCapacity);
    OS << '\n';
  }
  if (!Counters.empty()) {
    TablePrinter T({"counter", "value"});
    for (const auto &[Name, C] : Counters)
      T.addRow({Name, formatString("%llu", static_cast<unsigned long long>(
                                               C->value()))});
    T.print(OS);
    OS << '\n';
  }
  if (!Gauges.empty()) {
    TablePrinter T({"gauge", "value"});
    for (const auto &[Name, G] : Gauges)
      T.addRow({Name, formatString("%g", G->value())});
    T.print(OS);
    OS << '\n';
  }
  if (!Timers.empty()) {
    TablePrinter T({"timer", "count", "total s", "mean ms", "min ms",
                    "max ms"});
    for (const auto &[Name, Tm] : Timers)
      T.addRow({Name,
                formatString("%llu",
                             static_cast<unsigned long long>(Tm->count())),
                formatString("%.3f", Tm->totalSeconds()),
                formatString("%.3f", 1000.0 * Tm->meanSeconds()),
                formatString("%.3f", 1000.0 * Tm->minSeconds()),
                formatString("%.3f", 1000.0 * Tm->maxSeconds())});
    T.print(OS);
    OS << '\n';
  }
  if (!AllSeries.empty()) {
    TablePrinter T({"series", "count", "stride", "kept", "last"});
    for (const auto &[Name, S] : AllSeries) {
      std::vector<double> Samples = S->samples();
      T.addRow({Name,
                formatString("%llu",
                             static_cast<unsigned long long>(S->total())),
                formatString("%llu",
                             static_cast<unsigned long long>(S->stride())),
                formatString("%zu", Samples.size()),
                Samples.empty() ? std::string("-")
                                : formatString("%g", Samples.back())});
    }
    T.print(OS);
    OS << '\n';
  }
  return OS.str();
}

Registry &Registry::global() {
  static Registry G(/*StartEnabled=*/false);
  return G;
}
