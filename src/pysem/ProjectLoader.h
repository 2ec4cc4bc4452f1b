//===- pysem/ProjectLoader.h - Load projects from disk -----------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loads real Python repositories from the filesystem: walks a directory,
/// reads every `*.py` file, and returns a Project whose module paths are
/// relative to the root (so "pkg/views.py" resolves to module
/// "pkg.views"). Nothing is parsed here; the graph build parses a module
/// only when its graph is not served from the graph cache. Used by the CLI
/// tool to run the pipeline on checkouts.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PYSEM_PROJECTLOADER_H
#define SELDON_PYSEM_PROJECTLOADER_H

#include "pysem/Project.h"

#include <optional>
#include <string>
#include <vector>

namespace seldon {
namespace pysem {

/// Options for directory walking.
struct LoadOptions {
  /// Skip files larger than this many bytes (generated/minified blobs).
  size_t MaxFileBytes = 1u << 20;
  /// Directory names that are never descended into.
  std::vector<std::string> SkipDirs = {".git", "__pycache__", "venv",
                                       ".venv", "node_modules"};
};

/// Loads all `*.py` files under \p RootDir into a Project named after the
/// directory. Module paths are the files' paths below \p RootDir as
/// walked, computed lexically: a symlinked file keeps the path of its
/// link, not of its target. Returns std::nullopt when \p RootDir does not
/// exist or is not a directory; per-file read failures are reported into
/// \p ErrorsOut (may be null) and skipped.
///
/// Thread-safe: concurrent calls share no mutable state, so one root can
/// be loaded per worker (see loadProjectsFromDirs).
std::optional<Project>
loadProjectFromDir(const std::string &RootDir,
                   const LoadOptions &Opts = LoadOptions(),
                   std::vector<std::string> *ErrorsOut = nullptr);

/// Loads several roots concurrently over \p Jobs threads, the caller's
/// included (0 = hardware concurrency, 1 = serial). Results — including
/// the per-root error lists in \p ErrorsOut, resized to RootDirs.size() —
/// come back indexed in RootDirs order, so the output is deterministic
/// regardless of the thread count.
std::vector<std::optional<Project>>
loadProjectsFromDirs(const std::vector<std::string> &RootDirs,
                     const LoadOptions &Opts = LoadOptions(),
                     unsigned Jobs = 0,
                     std::vector<std::vector<std::string>> *ErrorsOut =
                         nullptr);

} // namespace pysem
} // namespace seldon

#endif // SELDON_PYSEM_PROJECTLOADER_H
