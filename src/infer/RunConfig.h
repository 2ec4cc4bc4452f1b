//===- infer/RunConfig.h - One run's set-up over a corpus --------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a run over a corpus of project directories is set up from, and the
/// one path from it to a configured Session. `seldon`, `seldond` and
/// service::Service (whose Options derive from RunConfig) all take it; each
/// step returns its warnings and its error for the caller to print.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_INFER_RUNCONFIG_H
#define SELDON_INFER_RUNCONFIG_H

#include "infer/Pipeline.h"
#include "support/IOResult.h"

#include <memory>
#include <string>
#include <vector>

namespace seldon {
namespace infer {

/// The knobs `seldon` and `seldond` both take.
struct RunConfig {
  std::string SeedFile;                ///< Empty = the built-in App. B seed.
  std::vector<std::string> CorpusDirs; ///< One project per directory.
  std::string CacheDir;                ///< Graph cache; empty = none.
  bool ShardCache = false; ///< Also cache shards, under CacheDir/shards.
  int Iterations = 600;
  size_t RepCutoff = 5;
  unsigned Jobs = 0;   ///< Threads, the caller's included; 0 = all.
  bool Strict = false; ///< Fail on a broken project, not quarantine it.
  double Threshold = 0.1; ///< For written specs and taint reports.
};

/// Config.SeedFile loaded strictly, or the built-in seed when it is empty.
io::IOResult<spec::SeedSpec> loadRunSeed(const RunConfig &Config);

/// Config.CorpusDirs loaded (not parsed) over Config.Jobs threads.
struct RunCorpus {
  /// One project per directory, in order.
  std::vector<pysem::Project> Projects;
  /// Each directory's loader warnings (files skipped), in order.
  std::vector<std::vector<std::string>> Warnings;
  /// "D is not a directory" for the first such D, where Projects stops
  /// and Warnings ends; empty on success.
  std::string Error;
};
RunCorpus loadRunCorpus(const RunConfig &Config);

/// A Session over \p Projects (borrowed until the graph is built) with
/// Config's iterations, cutoff, jobs and strict flag, and its caches when
/// CacheDir is set. An unusable cache directory sets \p Error to the
/// cache's diagnostic and leaves the session all-miss; a front end fails
/// on it rather than run silently uncached.
std::unique_ptr<Session>
makeRunSession(const RunConfig &Config,
               const std::vector<pysem::Project> &Projects,
               std::string &Error);

} // namespace infer
} // namespace seldon

#endif // SELDON_INFER_RUNCONFIG_H
