//===- tests/ScopedEnv.h - Scoped environment overrides ----------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scoped environment-variable override and the SELDON_SIMD settings
/// the kernel-tier sweeps run under. The solver kernel samples SELDON_SIMD
/// when an objective is built, so a solve started inside a ScopedEnv runs
/// on the tier it selects.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_TESTS_SCOPEDENV_H
#define SELDON_TESTS_SCOPEDENV_H

#include <cstdlib>
#include <optional>
#include <string>

namespace seldon {
namespace testutil {

/// Sets environment variable \p Name for one scope (a null \p Value unsets
/// it) and restores the previous value after.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    set(Value);
  }
  ~ScopedEnv() { set(Saved ? Saved->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  void set(const char *Value) {
    if (Value)
      ::setenv(Name, Value, 1);
    else
      ::unsetenv(Name);
  }

  const char *Name;
  std::optional<std::string> Saved;
};

/// The SELDON_SIMD settings tier sweeps run under: the scalar tier, the
/// AVX2 cap, and the host's best tier (unset). Hosts without AVX2 or
/// AVX-512 collapse some of them onto one tier; comparisons still hold.
inline constexpr const char *SimdTierSettings[] = {"off", "avx2", nullptr};

} // namespace testutil
} // namespace seldon

#endif // SELDON_TESTS_SCOPEDENV_H
