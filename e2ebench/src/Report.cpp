//===- e2ebench/src/Report.cpp - Clock, tracer, result printing -----------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace e2e {

double now() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double peakRssMb() {
  rusage Usage{};
  ::getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) * 1024.0 / 1e6;
}

Tracer &tracer() {
  static Tracer T;
  return T;
}

int64_t Tracer::begin(std::string Name, int64_t Parent, uint64_t Request) {
  if (!On)
    return -1;
  double Start = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back({std::move(Name), Start, Start, Parent, Request});
  return static_cast<int64_t>(Spans.size() - 1);
}

void Tracer::end(int64_t Id) {
  if (Id < 0)
    return;
  double End = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[static_cast<size_t>(Id)].End = End;
}

std::map<std::string, double> Tracer::selfByName(int64_t Root) const {
  std::map<std::string, double> Self;
  if (Root < 0)
    return Self;
  std::lock_guard<std::mutex> Lock(Mutex);
  // Spans are appended in start order, so every descendant of Root sits
  // after it; one forward pass collects the subtree.
  std::vector<char> InTree(Spans.size(), 0);
  std::vector<double> Children(Spans.size(), 0.0);
  InTree[static_cast<size_t>(Root)] = 1;
  for (size_t I = static_cast<size_t>(Root) + 1; I < Spans.size(); ++I) {
    int64_t P = Spans[I].Parent;
    if (P >= 0 && InTree[static_cast<size_t>(P)]) {
      InTree[I] = 1;
      Children[static_cast<size_t>(P)] += Spans[I].End - Spans[I].Start;
    }
  }
  for (size_t I = static_cast<size_t>(Root); I < Spans.size(); ++I)
    if (InTree[I])
      Self[Spans[I].Name] += Spans[I].End - Spans[I].Start - Children[I];
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<double> Children(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  std::ofstream Out(Path, std::ios::trunc);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Line[512];
    std::snprintf(Line, sizeof(Line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%lld,\"request\":%llu,\"self\":%.9f}\n",
                  I, S.Name.c_str(), S.Start, S.End,
                  static_cast<long long>(S.Parent),
                  static_cast<unsigned long long>(S.Request),
                  S.End - S.Start - Children[I]);
    Out << Line;
  }
  Out.close();
  return static_cast<bool>(Out);
}

void Outcome::op(const std::vector<std::string> &Problems) {
  ++Attempted;
  if (Problems.empty())
    return;
  ++Failed;
  for (const std::string &P : Problems)
    if (Failures.size() < 20)
      Failures.push_back(P);
}

void Outcome::set(const std::string &Name, double Value,
                  const std::string &Unit, size_t Samples) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M = {Name, Value, Unit, Samples};
      return;
    }
  Metrics.push_back({Name, Value, Unit, Samples});
}

using NameUnits = std::vector<std::pair<std::string, std::string>>;

const NameUnits &endToEndMetrics() {
  static const NameUnits Names = {{"setup_s", "s"},
                                   {"op_p50_ms", "ms"},
                                   {"peak_rss_mb", "MB"},
                                   {"macro_f1", "ratio"}};
  return Names;
}

const NameUnits &perLayerMetrics() {
  static const NameUnits Names = {
      {"trace.learn_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.unattributed_s", "s"},
      {"spec.read_s", "s"},
      {"pysem.load_s", "s"},
      {"pysem.load_mb_per_s", "MB/s"},
      {"pysem.files_parsed", "count"},
      {"pyast.lex_mb_per_s", "MB/s"},
      {"pyast.parse_mb_per_s", "MB/s"},
      {"cache.open_s", "s"},
      {"cache.graph_hit_ratio", "ratio"},
      {"cache.shard_hit_ratio", "ratio"},
      {"cache.bytes_read_mb", "MB"},
      {"propgraph.build_s", "s"},
      {"propgraph.events_per_s", "1/s"},
      {"constraints.gen_s", "s"},
      {"constraints.rows", "count"},
      {"constraints.rows_per_s", "1/s"},
      {"infer.solve_s", "s"},
      {"infer.solve_fixed_s", "s"},
      {"solver.compile_s", "s"},
      {"solver.iterate_s", "s"},
      {"solver.iterations", "count"},
      {"solver.converged", "count"},
      {"solver.nnz_iter_per_s", "1/s"},
      {"spec.write_s", "s"},
      {"learn.teardown_s", "s"},
      {"service.handle_query_ms_p50", "ms"},
      {"service.handle_feedback_ms_p50", "ms"},
      {"service.transport_ms_p50", "ms"},
      {"service.read_wait_ms_p99", "ms"},
      {"service.query_build_ms", "ms"},
      {"service.query_render_ms", "ms"},
      {"service.query_resp_kb", "KB"},
      {"taint.build_ms", "ms"},
      {"taint.analyze_ms", "ms"},
      {"serve.query_p50_ms", "ms"},
      {"serve.query_p99_ms", "ms"},
      {"serve.hot_query_p50_ms", "ms"},
      {"serve.taint_p50_ms", "ms"},
      {"serve.feedback_p50_ms", "ms"},
      {"serve.read_ops_per_s", "1/s"},
      {"serve.writer_lateness_ms", "ms"},
  };
  return Names;
}

void Outcome::meta(const std::string &Name, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Meta.emplace_back(Name, Buf);
}

void Outcome::meta(const std::string &Name, const std::string &Value) {
  Meta.emplace_back(Name, "\"" + Value + "\"");
}

void printReport(const RunConfig &Cfg, const Outcome &Out) {
  std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              Cfg.Workload.c_str(),
              static_cast<unsigned long long>(Cfg.Seed), Cfg.Seconds,
              Cfg.Trace ? 1 : 0);
  std::string Meta = "{";
  for (size_t I = 0; I < Out.Meta.size(); ++I)
    Meta += (I ? ",\"" : "\"") + Out.Meta[I].first + "\":" +
            Out.Meta[I].second;
  std::printf("# meta %s}\n", Meta.c_str());
  for (const std::string &F : Out.Failures)
    std::printf("# check failed: %s\n", F.c_str());

  // The result set: every listed metric, 0 with n=0 when not measured.
  std::vector<Metric> Shown;
  for (const auto &[Name, Unit] :
       Cfg.Trace ? perLayerMetrics() : endToEndMetrics()) {
    Metric M{Name, 0.0, Unit, 0};
    for (const Metric &Measured : Out.Metrics)
      if (Measured.Name == Name)
        M = Measured;
    Shown.push_back(M);
  }
  for (const Metric &M : Shown)
    std::printf("# %-32s %16.6f %-6s (n=%zu)\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples);
  // Figures outside the result set, for the reader.
  for (const Metric &M : Out.Metrics) {
    bool Listed = false;
    for (const Metric &S : Shown)
      Listed |= S.Name == M.Name;
    if (!Listed)
      std::printf("#   %-30s %16.6f %-6s (n=%zu)\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str(), M.Samples);
  }

  bool Correct = Out.Failed == 0 && Out.Attempted > 0;
  std::string Json = "{\"correct\":";
  Json += Correct ? "true" : "false";
  Json += ",\"attempted\":" + std::to_string(Out.Attempted);
  Json += ",\"failed\":" + std::to_string(Out.Failed);
  Json += ",\"metrics\":{";
  for (size_t I = 0; I < Shown.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(Shown[I].Value) ? Shown[I].Value : 0.0);
    Json += (I ? ",\"" : "\"") + Shown[I].Name + "\":{\"value\":" + Buf +
            ",\"unit\":\"" + Shown[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace e2e
