//===- tests/metrics_test.cpp - Metrics registry + trace spans ------------===//
//
// Covers the observability layer's contract: thread-safe updates under the
// ThreadPool, handle stability, series self-decimation, near-zero (and
// allocation-free) disabled paths, JSON snapshot shape, span nesting, and
// the hard guarantee that enabling metrics never changes pipeline output.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "support/Trace.h"

#include "corpus/CorpusGenerator.h"
#include "infer/Pipeline.h"
#include "spec/SpecIO.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

using namespace seldon;
using namespace seldon::metrics;

// Counts every global allocation so tests can assert that disabled-mode
// metric updates allocate nothing.
static std::atomic<uint64_t> AllocCount{0};

void *operator new(size_t Size) {
  AllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](size_t Size) { return ::operator new(Size); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

namespace {

TEST(MetricsTest, CounterGaugeTimerBasics) {
  Registry Reg;
  Reg.counter("c").add();
  Reg.counter("c").add(41);
  EXPECT_EQ(Reg.counter("c").value(), 42u);

  Reg.gauge("g").set(2.5);
  Reg.gauge("g").set(3.5);
  EXPECT_DOUBLE_EQ(Reg.gauge("g").value(), 3.5);

  TimerStat &T = Reg.timer("t");
  EXPECT_EQ(T.count(), 0u);
  EXPECT_DOUBLE_EQ(T.minSeconds(), 0.0);
  T.record(0.25);
  T.record(0.75);
  T.record(0.5);
  EXPECT_EQ(T.count(), 3u);
  EXPECT_DOUBLE_EQ(T.totalSeconds(), 1.5);
  EXPECT_DOUBLE_EQ(T.meanSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(T.minSeconds(), 0.25);
  EXPECT_DOUBLE_EQ(T.maxSeconds(), 0.75);
}

TEST(MetricsTest, HandlesAreStable) {
  Registry Reg;
  Counter &A = Reg.counter("x");
  Counter &B = Reg.counter("x");
  EXPECT_EQ(&A, &B);
  EXPECT_NE(&A, &Reg.counter("y"));
  Series &S1 = Reg.series("s", 16);
  Series &S2 = Reg.series("s", 999); // Capacity only applies on creation.
  EXPECT_EQ(&S1, &S2);
}

TEST(MetricsTest, DisabledRegistryIgnoresUpdates) {
  Registry Reg(/*StartEnabled=*/false);
  Counter &C = Reg.counter("c");
  TimerStat &T = Reg.timer("t");
  Series &S = Reg.series("s");
  C.add(7);
  T.record(1.0);
  S.record(1.0);
  Reg.gauge("g").set(5.0);
  Reg.recordSpan("span", 0.0, 1.0);
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(T.count(), 0u);
  EXPECT_EQ(S.total(), 0u);
  EXPECT_DOUBLE_EQ(Reg.gauge("g").value(), 0.0);
  // recordSpan is unconditional (trace::Span gates on enabled() itself).
  EXPECT_EQ(Reg.spans().size(), 1u);

  Reg.setEnabled(true);
  C.add(7);
  EXPECT_EQ(C.value(), 7u);
}

TEST(MetricsTest, DisabledUpdatesDoNotAllocate) {
  Registry Reg(/*StartEnabled=*/false);
  // Handles interned up front — the hot-path pattern.
  Counter &C = Reg.counter("c");
  Gauge &G = Reg.gauge("g");
  TimerStat &T = Reg.timer("t");
  Series &S = Reg.series("s");

  uint64_t Before = AllocCount.load();
  for (int I = 0; I < 1000; ++I) {
    C.add();
    G.set(1.0);
    T.record(0.5);
    S.record(0.5);
  }
  EXPECT_EQ(AllocCount.load(), Before)
      << "disabled-mode metric updates must not allocate";
}

TEST(MetricsTest, ConcurrentUpdatesUnderThreadPool) {
  Registry Reg;
  Counter &C = Reg.counter("c");
  TimerStat &T = Reg.timer("t");
  Series &S = Reg.series("s", 64);

  ThreadPool Pool(4);
  constexpr size_t Tasks = 64;
  constexpr int PerTask = 500;
  Pool.parallelFor(Tasks, [&](size_t, unsigned) {
    for (int I = 0; I < PerTask; ++I) {
      C.add();
      T.record(0.001);
      S.record(static_cast<double>(I));
    }
  });

  EXPECT_EQ(C.value(), Tasks * PerTask);
  EXPECT_EQ(T.count(), Tasks * PerTask);
  EXPECT_DOUBLE_EQ(T.minSeconds(), 0.001);
  EXPECT_DOUBLE_EQ(T.maxSeconds(), 0.001);
  EXPECT_EQ(S.total(), static_cast<uint64_t>(Tasks * PerTask));
  EXPECT_LE(S.samples().size(), 64u);
}

TEST(MetricsTest, ConcurrentInterningIsSafe) {
  Registry Reg;
  ThreadPool Pool(4);
  Pool.parallelFor(100, [&](size_t I, unsigned) {
    Reg.counter("shared").add();
    Reg.counter("c" + std::to_string(I % 10)).add();
  });
  EXPECT_EQ(Reg.counter("shared").value(), 100u);
  uint64_t Sum = 0;
  for (int I = 0; I < 10; ++I)
    Sum += Reg.counter("c" + std::to_string(I)).value();
  EXPECT_EQ(Sum, 100u);
}

TEST(MetricsTest, SeriesDecimationKeepsUniformSubsample) {
  Registry Reg;
  Series &S = Reg.series("s", 8);
  constexpr int N = 1000;
  for (int I = 0; I < N; ++I)
    S.record(static_cast<double>(I));

  EXPECT_EQ(S.total(), static_cast<uint64_t>(N));
  std::vector<double> Samples = S.samples();
  EXPECT_LE(Samples.size(), 8u);
  EXPECT_GE(Samples.size(), 2u);
  uint64_t Stride = S.stride();
  // Stride doubles from 1: always a power of two.
  EXPECT_EQ(Stride & (Stride - 1), 0u);
  // Stored samples are exactly the values recorded at multiples of the
  // stride — a uniformly spaced subsample of the full sequence.
  for (size_t I = 0; I < Samples.size(); ++I)
    EXPECT_DOUBLE_EQ(Samples[I], static_cast<double>(I * Stride));
}

TEST(MetricsTest, ResetZeroesButKeepsHandles) {
  Registry Reg;
  Counter &C = Reg.counter("c");
  C.add(5);
  Reg.timer("t").record(1.0);
  Reg.series("s").record(1.0);
  Reg.recordSpan("x", 0.0, 1.0);
  Reg.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(&C, &Reg.counter("c"));
  EXPECT_EQ(Reg.timer("t").count(), 0u);
  EXPECT_EQ(Reg.series("s").total(), 0u);
  EXPECT_TRUE(Reg.spans().empty());
}

TEST(MetricsTest, JsonSnapshotShape) {
  Registry Reg;
  Reg.counter("files").add(12);
  Reg.gauge("rows").set(34.5);
  Reg.timer("parse").record(0.5);
  Reg.series("obj", 8).record(1.25);
  Reg.recordSpan("session/solve", 0.5, 2.0);

  std::string Json = Reg.toJson();
  EXPECT_NE(Json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(Json.find("\"files\": 12"), std::string::npos);
  EXPECT_NE(Json.find("\"rows\": 34.5"), std::string::npos);
  EXPECT_NE(Json.find("\"parse\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"total_seconds\": 0.5"), std::string::npos);
  EXPECT_NE(Json.find("\"samples\": [1.25]"), std::string::npos);
  EXPECT_NE(Json.find("\"path\": \"session/solve\""), std::string::npos);
  EXPECT_NE(Json.find("\"duration_seconds\": 2"), std::string::npos);
  // Balanced braces/brackets — a cheap structural validity check (no
  // string values contain braces here).
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '['),
            std::count(Json.begin(), Json.end(), ']'));
}

TEST(MetricsTest, JsonEscapesNames) {
  Registry Reg;
  Reg.counter("we\"ird\\name").add();
  std::string Json = Reg.toJson();
  EXPECT_NE(Json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(MetricsTest, RenderTextListsEveryKind) {
  Registry Reg;
  Reg.counter("parse.files").add(3);
  Reg.gauge("gen.vars").set(7);
  Reg.timer("parse.file_seconds").record(0.25);
  Reg.series("solve.objective").record(0.5);
  Reg.recordSpan("session/build", 0.0, 1.0);
  std::string Text = Reg.renderText();
  EXPECT_NE(Text.find("parse.files"), std::string::npos);
  EXPECT_NE(Text.find("gen.vars"), std::string::npos);
  EXPECT_NE(Text.find("parse.file_seconds"), std::string::npos);
  EXPECT_NE(Text.find("solve.objective"), std::string::npos);
  EXPECT_NE(Text.find("session/build"), std::string::npos);
  EXPECT_EQ(Text.find("dropped"), std::string::npos)
      << "nothing was dropped, so nothing is reported";
  // Empty kinds are omitted entirely.
  Registry Empty;
  EXPECT_TRUE(Empty.renderText().empty());
}

TEST(MetricsTest, SpanLogIsABoundedRingInFinishOrder) {
  const size_t Cap = Registry::SpanCapacity;
  Registry Reg;
  for (size_t I = 0; I < Cap; ++I)
    Reg.recordSpan("s" + std::to_string(I), static_cast<double>(I), 1.0);
  EXPECT_EQ(Reg.spansDropped(), 0u) << "a full ring has dropped nothing";

  // Two more wrap the ring: the two oldest records are overwritten.
  Reg.recordSpan("s" + std::to_string(Cap), static_cast<double>(Cap), 1.0);
  Reg.recordSpan("s" + std::to_string(Cap + 1), Cap + 1.0, 1.0);
  std::vector<SpanRecord> Spans = Reg.spans();
  ASSERT_EQ(Spans.size(), Cap);
  EXPECT_EQ(Spans.front().Path, "s2");
  EXPECT_DOUBLE_EQ(Spans.front().StartSeconds, 2.0);
  EXPECT_EQ(Spans.back().Path, "s" + std::to_string(Cap + 1));
  for (size_t I = 1; I < Spans.size(); ++I)
    ASSERT_LT(Spans[I - 1].StartSeconds, Spans[I].StartSeconds)
        << "kept spans must stay in finish order across the wrap point";
  EXPECT_EQ(Reg.spansDropped(), 2u);

  std::string Json = Reg.toJson();
  EXPECT_NE(Json.find("\"spans_dropped\": 2,"), std::string::npos);
  EXPECT_EQ(Json.find("\"s1\""), std::string::npos);
  size_t AtOldest = Json.find("\"s2\""),
         AtNewest = Json.find("\"s" + std::to_string(Cap + 1) + "\"");
  ASSERT_NE(AtOldest, std::string::npos);
  ASSERT_NE(AtNewest, std::string::npos);
  EXPECT_LT(AtOldest, AtNewest);
  EXPECT_NE(Reg.renderText().find("2 older span(s) dropped"),
            std::string::npos);

  Reg.reset();
  EXPECT_TRUE(Reg.spans().empty());
  EXPECT_EQ(Reg.spansDropped(), 0u);
  Reg.recordSpan("fresh", 0.0, 1.0);
  ASSERT_EQ(Reg.spans().size(), 1u);
  EXPECT_EQ(Reg.spans()[0].Path, "fresh");
}

TEST(TraceTest, SpansNestPerThread) {
  Registry Reg;
  {
    trace::Span Outer(Reg, "session");
    trace::Span Inner(Reg, "solve");
    Inner.finish();
    trace::Span Second(Reg, "report");
  }
  std::vector<SpanRecord> Spans = Reg.spans();
  ASSERT_EQ(Spans.size(), 3u);
  // Recorded in finish order: children before their parent.
  EXPECT_EQ(Spans[0].Path, "session/solve");
  EXPECT_EQ(Spans[1].Path, "session/report");
  EXPECT_EQ(Spans[2].Path, "session");
  EXPECT_GE(Spans[2].DurationSeconds, Spans[0].DurationSeconds);
}

TEST(TraceTest, SpanTimesEvenWhenRegistryDisabled) {
  Registry Reg(/*StartEnabled=*/false);
  trace::Span S(Reg, "stage");
  double D = S.finish();
  EXPECT_GE(D, 0.0);
  EXPECT_DOUBLE_EQ(S.seconds(), D);
  EXPECT_TRUE(Reg.spans().empty()) << "disabled registry records no spans";
  EXPECT_DOUBLE_EQ(S.finish(), D) << "finish() is idempotent";
}

TEST(TraceTest, SpansOnPoolWorkersDoNotInheritForeignParents) {
  Registry Reg;
  {
    trace::Span Outer(Reg, "outer");
    ThreadPool Pool(2);
    Pool.parallelFor(4, [&](size_t I, unsigned) {
      trace::Span Worker(Reg, "task" + std::to_string(I));
    });
  }
  std::set<std::string> Paths;
  for (const SpanRecord &S : Reg.spans())
    Paths.insert(S.Path);
  // Worker threads have no open parent span, so tasks are roots.
  EXPECT_TRUE(Paths.count("task0")) << "worker span must not nest";
  EXPECT_TRUE(Paths.count("outer"));
}

TEST(MetricsTest, GlobalRegistryStartsDisabled) {
  // Other tests may enable it; this only checks the handle is process-wide
  // and stable.
  Registry &A = Registry::global();
  Registry &B = Registry::global();
  EXPECT_EQ(&A, &B);
}

// The acceptance guarantee of the whole layer: enabling metrics changes no
// pipeline output, at Jobs=1 and Jobs=4.
TEST(MetricsPipelineTest, EnabledMetricsKeepLearnedSpecByteIdentical) {
  corpus::CorpusOptions CorpusOpts;
  CorpusOpts.NumProjects = 12;
  CorpusOpts.Seed = 11;
  corpus::Corpus Data = corpus::generateCorpus(CorpusOpts);

  auto Learn = [&](unsigned Jobs) {
    infer::PipelineOptions Opts;
    Opts.Solve.MaxIterations = 200;
    Opts.Jobs = Jobs;
    infer::Session S(Opts);
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    return spec::writeLearnedSpec(S.solve().Learned);
  };

  Registry &Reg = Registry::global();
  bool WasEnabled = Reg.enabled();
  Reg.setEnabled(false);
  std::string OffSerial = Learn(1);
  std::string OffParallel = Learn(4);
  Reg.setEnabled(true);
  std::string OnSerial = Learn(1);
  std::string OnParallel = Learn(4);
  Reg.setEnabled(WasEnabled);

  EXPECT_EQ(OffSerial, OnSerial);
  EXPECT_EQ(OffParallel, OnParallel);
  EXPECT_EQ(OffSerial, OffParallel);

  // And the instrumented run actually produced telemetry.
  EXPECT_GT(Reg.counter("solve.iterations").value(), 0u);
  EXPECT_GT(Reg.series("solve.objective").total(), 0u);
  // Stage spans carry their true names, and the solve splits into its
  // compile, iterate and readback children.
  std::set<std::string> Paths;
  for (const SpanRecord &S : Reg.spans())
    Paths.insert(S.Path);
  for (const char *Path :
       {"session/build", "session/constraints", "session/solve",
        "session/solve/compile", "session/solve/iterate",
        "session/solve/readback"})
    EXPECT_TRUE(Paths.count(Path)) << "missing span " << Path;
}

} // namespace
