// Deterministic PRNG (splitmix64 / xoshiro256**) for reproducible workloads.
//
// std::mt19937 would also be deterministic, but its state is bulky and its
// distributions are not guaranteed identical across standard libraries; the
// benchmark harnesses want byte-stable workloads across toolchains.
#pragma once

#include <cstdint>

#include "util/hash.hpp"

namespace sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    for (auto& si : s_) {
      si = util::splitmix64(seed);
      seed += util::kSplitmixGamma;
    }
  }

  std::uint64_t next_u64() {
    auto rotl = [](std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); };
    std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) { return next_u64() % bound; }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace sim
