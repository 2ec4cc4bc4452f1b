//===- tools/SharedFlags.h - The flags seldon and seldond share --*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table of the ten flags both binaries take: the eight that fill
/// an infer::RunConfig, plus --metrics and --metrics-out. Each flag's
/// name, placeholder, help line and check live here once, so the binaries
/// cannot drift. Compiled into both binaries; the libraries hold no flag
/// text.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_TOOLS_SHAREDFLAGS_H
#define SELDON_TOOLS_SHAREDFLAGS_H

#include "infer/RunConfig.h"
#include "support/ArgParser.h"

#include <string>

namespace seldon {

/// Construct before ArgParser::parse(), call check() after it.
class SharedFlags {
public:
  /// Registers the shared flags on \p Parser, which then writes them into
  /// \p Run (borrowed) and this object.
  SharedFlags(ArgParser &Parser, infer::RunConfig &Run);
  // The parser holds pointers into this object.
  SharedFlags(const SharedFlags &) = delete;
  SharedFlags &operator=(const SharedFlags &) = delete;

  /// Stores the numbers in Run: --iters in [1, 10^7], --jobs clamped (with
  /// a warning) to 8x the hardware threads, --shard-cache only with
  /// --cache-dir. False after printing the error.
  bool check();

  bool wantsMetrics() const { return Metrics || !MetricsOut.empty(); }

  /// Prints the metrics tables (--metrics) and writes the JSON snapshot
  /// (--metrics-out). False after printing `cannot write metrics`.
  bool emitMetrics() const;

  /// The shared flags' usage block with its heading, the same bytes in
  /// both binaries.
  static std::string usage();

private:
  infer::RunConfig &Run;
  unsigned long Iters;
  unsigned long Cutoff;
  unsigned long Jobs;
  bool Metrics = false;
  std::string MetricsOut;
};

/// Arms SELDON_FAULT's fault-injection points; false after printing the
/// error on a malformed value.
bool configureFaults();

} // namespace seldon

#endif // SELDON_TOOLS_SHAREDFLAGS_H
