// Latency accounting for the serving tier: log-bucketed virtual-time
// histogram (p50/p99/p999 by bucket interpolation) and SLO goodput.
//
// The histogram is the unit the regression harness diffs: counts are exact
// integers, merging is commutative, and digest() gives a single word that
// two runs of the same seed must reproduce bit-identically. Quantiles
// interpolate linearly inside a power-of-two bucket — a deterministic
// function of the counts, so they are comparable across runs even though
// they are doubles.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "sim/time.hpp"
#include "util/hash.hpp"

namespace serve {

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;  ///< bucket b holds ns in [2^(b-1), 2^b)

  void add(sim::Time lat) {
    const auto ns = static_cast<std::uint64_t>(lat.ns() < 0 ? 0 : lat.ns());
    const int b = std::bit_width(ns);
    counts_[b >= kBuckets ? kBuckets - 1 : b] += 1;
    ++total_;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Smallest latency (us) such that at least q of the samples are <= it.
  /// Linear interpolation within the winning bucket; 0 when empty.
  [[nodiscard]] double quantile_us(double q) const {
    if (total_ == 0) return 0.0;
    const double want = q * static_cast<double>(total_);
    std::uint64_t below = 0;
    for (int b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      const auto here = static_cast<double>(counts_[b]);
      if (static_cast<double>(below) + here >= want) {
        const double frac = (want - static_cast<double>(below)) / here;
        const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
        const double hi = static_cast<double>(
            b >= 63 ? ~0ull : (1ull << b));
        return (lo + frac * (hi - lo)) / 1000.0;
      }
      below += counts_[b];
    }
    return static_cast<double>(1ull << (kBuckets - 1)) / 1000.0;
  }

  /// Commutative merge (edges accumulate independently, any order).
  void merge(const LatencyHistogram& o) {
    for (int b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
  }

  /// Bit-stable identity of the distribution (FNV over the count array).
  [[nodiscard]] std::uint64_t digest() const {
    return util::fnv1a(counts_.data(), counts_.size() * sizeof(counts_[0]));
  }

  bool operator==(const LatencyHistogram&) const = default;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Goodput-under-SLO: a response counts only if its end-to-end virtual-time
/// latency met the target. Goodput is SLO-met responses per virtual second.
class SloAccount {
 public:
  explicit SloAccount(sim::Time slo = sim::Time::from_us(150)) : slo_(slo) {}

  void add(sim::Time lat) {
    if (lat <= slo_) {
      ++ok_;
    } else {
      ++miss_;
    }
  }

  [[nodiscard]] sim::Time slo() const { return slo_; }
  [[nodiscard]] std::uint64_t ok() const { return ok_; }
  [[nodiscard]] std::uint64_t miss() const { return miss_; }
  [[nodiscard]] std::uint64_t total() const { return ok_ + miss_; }

  [[nodiscard]] double ok_fraction() const {
    return total() == 0 ? 0.0
                        : static_cast<double>(ok_) /
                              static_cast<double>(total());
  }

  /// SLO-met responses per second of the given virtual-time span.
  [[nodiscard]] double goodput_rps(sim::Time span) const {
    return span.ns() <= 0 ? 0.0
                          : static_cast<double>(ok_) * 1e9 /
                                static_cast<double>(span.ns());
  }

  void merge(const SloAccount& o) {
    ok_ += o.ok_;
    miss_ += o.miss_;
  }

 private:
  sim::Time slo_;
  std::uint64_t ok_ = 0;
  std::uint64_t miss_ = 0;
};

}  // namespace serve
