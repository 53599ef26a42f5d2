// The two hash primitives shared by the simulator, apps and benches.
//
// splitmix64 derives well-mixed values from a counter or seed: xoshiro
// seeding (sim::Rng), per-frame fault streams, per-request serve values.
// fnv1a digests a byte range: payload identity in the serving tier, the
// sanitizer's buffer checksums, bench result digests. Both are pinned bit
// for bit (goldens and seeded workloads depend on them); the wire
// checksum's word-wise FNV in mpi/wire.hpp is a different function.
#pragma once

#include <cstddef>
#include <cstdint>

namespace util {

/// splitmix64's increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ull;

/// One splitmix64 step: the mix of x + gamma.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Byte-wise FNV-1a over [data, data + n), continuing from `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace util
