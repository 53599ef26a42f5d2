// Single audited funnel for environment-variable lookups.
//
// Every MPIOFF_* knob is read through env_util, exactly once, at startup —
// before any fibers are spawned and before any std::thread exists. That
// single call site below carries the one concurrency-mt-unsafe exemption the
// whole tree needs, instead of a NOLINT restating the same argument at every
// getenv call. New knobs must go through here: clang-tidy (with
// concurrency-* in WarningsAsErrors) fails the build on any bare std::getenv
// added elsewhere.
#pragma once

#include <cstdlib>
#include <string>

namespace env_util {

/// Raw lookup: nullptr when the variable is unset. Only safe because every
/// caller runs single-threaded at startup; this is the audited exemption.
inline const char* get(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup, pre-threads
  return std::getenv(name);
}

/// The variable's value, or `fallback` when unset or empty.
inline std::string get_or(const char* name, const char* fallback = "") {
  const char* s = get(name);
  return (s != nullptr && *s != '\0') ? std::string(s) : std::string(fallback);
}

/// Positive integer value, or `fallback` when unset, empty, or <= 0.
inline long long positive_or(const char* name, long long fallback) {
  const char* s = get(name);
  if (s == nullptr || *s == '\0') return fallback;
  const long long v = std::atoll(s);
  return v > 0 ? v : fallback;
}

}  // namespace env_util
