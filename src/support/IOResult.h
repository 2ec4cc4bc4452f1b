//===- support/IOResult.h - Uniform IO success/error carrier -----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform result type of every IO-facing API in the codebase: either a
/// value or a printable error message, plus recoverable per-record warnings.
/// Grown out of spec/SpecIO.h (which keeps `spec::IOResult` as an alias) so
/// lower layers — the propagation-graph codec, the graph cache — can share
/// the same strict error discipline: a failed load returns a descriptive
/// Error and a default-constructed Value, never a partially-populated one.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_IORESULT_H
#define SELDON_SUPPORT_IORESULT_H

#include <string>
#include <utility>
#include <vector>

namespace seldon {
namespace io {

/// Outcome of an IO operation: either a value or an error message, plus
/// recoverable per-record warnings.
template <typename T> struct IOResult {
  T Value{};
  /// Empty on success; a printable message on failure.
  std::string Error;
  /// Recoverable diagnostics (malformed records that were skipped).
  std::vector<std::string> Warnings;

  bool ok() const { return Error.empty(); }
  explicit operator bool() const { return ok(); }

  static IOResult success(T Value) {
    IOResult R;
    R.Value = std::move(Value);
    return R;
  }

  static IOResult failure(std::string Message) {
    IOResult R;
    R.Error = std::move(Message);
    return R;
  }
};

} // namespace io
} // namespace seldon

#endif // SELDON_SUPPORT_IORESULT_H
