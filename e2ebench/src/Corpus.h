//===- e2ebench/src/Corpus.h - Seeded corpus on disk -------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's corpus materializer. From a seed and a project count it
/// writes the generated web-app projects to disk, one directory per
/// project, exactly as a user would point `seldon learn` at checkouts.
/// Generation runs in a child process so that neither its time nor its
/// memory shows up in any metric; the parent keeps only what scoring needs
/// (the seed specification and the ground truth). Generated corpora are
/// kept under .bench_work/corpora and reused by later runs of any workload
/// with the same seed and size, as long as the benchmark is not rebuilt.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_E2EBENCH_CORPUS_H
#define SELDON_E2EBENCH_CORPUS_H

#include "Bench.h"

#include "corpus/GroundTruth.h"
#include "spec/SeedSpec.h"

#include <string>
#include <vector>

namespace e2e {

/// A generated corpus written to disk.
struct DiskCorpus {
  /// Project directories, in corpus order.
  std::vector<std::string> Dirs;
  /// The seed specification file (App. B format).
  std::string SeedPath;
  /// A separate generated project of five files, the `taint` payload.
  std::string PayloadDir;
  seldon::spec::SeedSpec Seed;
  seldon::corpus::GroundTruth Truth;
  size_t Files = 0;
  uint64_t Bytes = 0;
  /// Wall time of generating and writing the corpus (in no metric).
  double Seconds = 0.0;

  double megabytes() const { return static_cast<double>(Bytes) / 1e6; }
};

/// Provides the corpus of \p Cfg.Projects projects generated from
/// \p Cfg.Seed, from the corpora kept next to Cfg.WorkDir or freshly
/// generated into them. Its files must not be modified (see copyCorpus).
/// False with \p Error on failure.
bool materializeCorpus(const RunConfig &Cfg, DiskCorpus &Out,
                       std::string &Error);

/// Copies the project directories of \p C to \p Dir and points \p C at
/// the copies, for a workload that edits them.
bool copyCorpus(DiskCorpus &C, const std::string &Dir, std::string &Error);

/// Every `*.py` file under \p Dir, sorted.
std::vector<std::string> listPyFiles(const std::string &Dir);

/// Whole-file read; false when the file cannot be read.
bool readWholeFile(const std::string &Path, std::string &Out);

/// Whole-file write (truncating); false on any I/O failure.
bool writeWholeFile(const std::string &Path, const std::string &Data);

} // namespace e2e

#endif // SELDON_E2EBENCH_CORPUS_H
