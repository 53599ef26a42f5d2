// PartReadyWord — the per-partition ready word of a partitioned send.
//
// A partitioned send (core::Proxy::psend_init + pready) is one message whose
// payload is produced piecewise by many compute fibers. Each producer calls
// pready(p) when its slice of the buffer is final; the offload engine polls
// the word from its progress loop and ships newly-ready partitions on the
// wire while sibling lanes are still computing. The word is therefore the
// only data-carrying handoff between application fibers and the engine that
// does not ride a submission lane — it gets the same treatment as the other
// lock-free protocols in src/core/: an atomics-policy template parameter so
// the src/check/ model checker can exhaustively interleave publisher fibers
// against the engine consumer (spec: chk::specs::check_pready), and a
// mutation row per fence proving it load-bearing.
//
// Protocol:
//  * producer: write the partition's bytes into the user buffer (plain
//    stores), then mark(p) — one fetch_or with RELEASE ordering. The release
//    publishes the payload writes to whoever observes the bit.
//  * consumer (engine): load the word with ACQUIRE; for every newly-set bit
//    the acquire synchronizes with the producer's release, so the engine —
//    and the simulated NIC serializing straight from the user buffer — reads
//    the finished slice.
//  * reset() is NOT part of the concurrent protocol: it runs at re-arm time
//    (Proxy::start), when the previous generation has completed and no
//    producer or consumer touches the word — hence a relaxed store.
//
// mark() returns the word's previous value (the check-layer spec asserts
// on it). Double pready(p) of one generation never reaches the word: the
// proxy front end rejects it before publishing.
//
// One word covers 64 partitions; wider operations hold a vector of words
// (partition p lives in word p/64, bit p%64). The engine tracks shipped
// partitions in a plain mirror mask and only acts on `ready & ~shipped`.
//
// Memory-order inventory (mutation-tested, see check_pready):
//  * mark: fetch_or release — publishes the partition payload.
//  * load: acquire — synchronizes with mark before the payload is read.
//  * reset: relaxed store — quiescent between generations by construction.
//
// memorder-audit: relaxed=1 acquire=1 release=1 acq_rel=0 seq_cst=0
// (tools/check_memorder.py fails CI when this line disagrees with the
// std::memory_order_* tokens actually used below — update both together.)
#pragma once

#include <atomic>
#include <cstdint>

#include "core/atomics_policy.hpp"

namespace core {

template <typename Atomics = StdAtomics>
class PartReadyWordT {
 public:
  PartReadyWordT() { Atomics::set_name(bits_, "pready.word"); }

  PartReadyWordT(const PartReadyWordT&) = delete;
  PartReadyWordT& operator=(const PartReadyWordT&) = delete;

  /// Producer side: publish partition `bit_index` (0..63) of this word.
  /// Returns the previous word value.
  std::uint64_t mark(unsigned bit_index) {
    return bits_.fetch_or(std::uint64_t{1} << bit_index,
                          std::memory_order_release);
  }

  /// Consumer side: current ready mask; synchronizes with every mark()
  /// whose bit is visible in the returned value.
  [[nodiscard]] std::uint64_t load() const {
    return bits_.load(std::memory_order_acquire);
  }

  /// Re-arm for the next generation. Only legal while the word is
  /// quiescent (previous generation complete, next one not yet started).
  void reset() { bits_.store(0, std::memory_order_relaxed); }

 private:
  typename Atomics::template atomic<std::uint64_t> bits_{0};
};

using PartReadyWord = PartReadyWordT<>;

}  // namespace core
