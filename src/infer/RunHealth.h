//===- infer/RunHealth.h - Fault-tolerance run report ------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the fault-tolerant runtime had to do in a Session's stages: which
/// projects were quarantined and why, whether a deadline cut the build or
/// constraint generation short, and which cache operations degraded. A
/// solve's own guard and stop facts live in its solver::SolveResult;
/// PipelineResult::status() combines the two. Surfaced through
/// PipelineResult::Health, the `health.*` metrics, and the CLI's health
/// summary / exit code — see docs/architecture.md "Failure discipline".
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_INFER_RUNHEALTH_H
#define SELDON_INFER_RUNHEALTH_H

#include <cstddef>
#include <string>
#include <vector>

namespace seldon {
namespace infer {

/// Overall verdict of a pipeline run.
enum class RunStatus {
  Clean,    ///< Results identical to an undisturbed run.
  Degraded, ///< Partial or perturbed results, every deviation recorded.
  Failed,   ///< No usable results (CLI-level verdict; the pipeline throws).
};

/// Printable status name ("clean", "degraded", "failed").
inline const char *runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Clean:
    return "clean";
  case RunStatus::Degraded:
    return "degraded";
  case RunStatus::Failed:
    return "failed";
  }
  return "?";
}

/// One project the isolation boundary removed from the run.
struct QuarantinedProject {
  size_t Index = 0;   ///< Corpus position at Session::addProject time.
  std::string Name;   ///< pysem::Project::name().
  std::string Reason; ///< The captured diagnostic (exception what()).
};

/// The aggregated fault-tolerance report of one Session's stages.
struct RunHealth {
  /// Projects whose parse/build/cache-load threw (or that the run
  /// deadline cut off), in corpus order. The run continued over the
  /// survivors; the learned spec is byte-identical to a run over only
  /// those survivors at any Jobs value.
  std::vector<QuarantinedProject> Quarantined;

  /// Cache reads/writes that threw and were degraded to a rebuild or a
  /// skipped write-back, and cached shards that did not fit their graph
  /// slice and were re-extracted. Results are unaffected (the cache is
  /// transparent), so incidents alone do not degrade the status.
  std::vector<std::string> CacheIncidents;

  /// The run deadline ended a stage early; DeadlineStage names it
  /// ("parse" or "constraints"). A solve the deadline stopped reports it
  /// in SolveResult::DeadlineExpired instead.
  bool DeadlineExpired = false;
  std::string DeadlineStage;

  /// Whether the stages' output is partial: a project was quarantined or
  /// a stage deadline expired.
  bool degraded() const { return !Quarantined.empty() || DeadlineExpired; }
};

} // namespace infer
} // namespace seldon

#endif // SELDON_INFER_RUNHEALTH_H
