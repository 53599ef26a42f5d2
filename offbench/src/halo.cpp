// halo_partitioned — BSP ring halo exchange with partitioned persistent
// requests, shaped like the Fig 11 solver.
//
// Four ranks form a ring. Each rank owns two faces (to its left and right
// neighbour), each a psend_init with 8 partitions of rendezvous size, and
// the two matching precv_init. Per iteration the main fiber startall()s the
// four requests (one command each), releases 8 compute fibers that run
// seeded compute jitter, fill their slice of both faces and pready() their
// partition, waits for the four requests, checks every received partition
// and ends the iteration with a one-double allreduce. Early-partition
// shipping and compute overlap decide the result; the command count per
// iteration is 4, not one per message.
//
// Payloads are real: phantom (nullptr) partitioned sends are not usable
// (see README.md, "Known defect"), and the content check needs them anyway.
#include <algorithm>
#include <climits>
#include <string>

#include "bench.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"

namespace offbench {
namespace {

constexpr int kRanks = 4;
constexpr int kFibers = 8;  ///< compute fibers = partitions per face
constexpr int kIters = 192;
/// Just above the 128 KiB eager threshold, so every partition is rendezvous.
constexpr std::size_t kPartBytes = 136 * 1024;
constexpr std::size_t kFaceBytes = kPartBytes * kFibers;
constexpr double kComputeUs = 250.0;  ///< mean compute per fiber per iteration
constexpr double kJitter = 0.3;      ///< +/- share of kComputeUs

class Halo final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    compute_ns_.assign(static_cast<std::size_t>(kRanks * kIters * kFibers), 0);
    sim::Rng rng(mix(seed ^ 0x6861106861106861ull));
    for (auto& c : compute_ns_) {
      const double u = 2.0 * rng.next_double() - 1.0;
      c = static_cast<std::int64_t>(kComputeUs * 1000.0 * (1.0 + kJitter * u));
    }
  }

  double setup_once(std::uint64_t seed) override {
    const std::int64_t t0 = host_ns();
    prepare(seed);
    return time_to_first_event(t0, pinned_cluster_config(kRanks));
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvBasis;
    for (std::int64_t c : compute_ns_) h = fold(h, static_cast<std::uint64_t>(c));
    return fold(h, seed_);
  }

  std::string describe() const override {
    return "4-rank ring, 8 compute fibers, 2 faces x 8 partitions x 136 KiB, "
           "192 iterations, compute 250 us +/- 30%, offload proxies=2 lanes=16";
  }

  Outcome run() override {
    Outcome o;
    std::vector<double> iter_us;
    double wait_ns = 0, iter_ns = 0;
    std::int64_t first = INT64_MAX, last = 0;
    std::uint64_t bad = 0, leaked = 0;
    std::uint64_t payload_digest = kFnvBasis;
    double reduced_sum = 0;

    set_capture(&o.layers);
    const std::int64_t h0 = host_ns();
    {
      smpi::Cluster cluster(pinned_cluster_config(kRanks));
      cluster.run([&](smpi::RankCtx& rc) {
        TracedProxy proxy(rc, pinned_proxy_options());
        proxy.start_engine();
        const int r = rc.rank();
        const int left = (r + kRanks - 1) % kRanks, right = (r + 1) % kRanks;
        // Face tags: 1 travels rightwards, 2 leftwards.
        std::vector<std::uint64_t> to_right(kFaceBytes / 8), to_left(kFaceBytes / 8);
        std::vector<std::uint64_t> from_left(kFaceBytes / 8), from_right(kFaceBytes / 8);
        std::vector<core::PersistentReq> reqs = {
            proxy.psend_init(to_right.data(), kFaceBytes, smpi::Datatype::kByte,
                             right, 1, kFibers),
            proxy.psend_init(to_left.data(), kFaceBytes, smpi::Datatype::kByte,
                             left, 2, kFibers),
            proxy.precv_init(from_left.data(), kFaceBytes, smpi::Datatype::kByte,
                             left, 1, kFibers),
            proxy.precv_init(from_right.data(), kFaceBytes, smpi::Datatype::kByte,
                             right, 2, kFibers)};
        sim::Barrier go(kFibers + 1), filled(kFibers + 1);
        int it = 0;
        bool stop = false;
        for (int f = 0; f < kFibers; ++f) {
          rc.cluster().spawn_on(r, "compute" + std::to_string(f), [&, f]() {
            for (;;) {
              go.arrive_and_wait();
              if (stop) return;
              smpi::compute(sim::Time::from_ns(compute_ns(r, it, f)));
              fill(to_right.data(), r, 1, it, f);
              proxy.pready(reqs[0], static_cast<std::uint32_t>(f));
              fill(to_left.data(), r, 2, it, f);
              proxy.pready(reqs[1], static_cast<std::uint32_t>(f));
              filled.arrive_and_wait();
            }
          });
        }
        for (it = 0; it < kIters; ++it) {
          SpanScope iter("bench.iteration", r, 1 + static_cast<std::uint64_t>(it));
          const std::int64_t t0 = sim::now().ns();
          proxy.startall(reqs);
          go.arrive_and_wait();
          filled.arrive_and_wait();
          const std::int64_t t1 = sim::now().ns();
          for (auto& q : reqs) proxy.wait(q);
          const std::int64_t t2 = sim::now().ns();
          double local = 0;
          for (int p = 0; p < kFibers; ++p) {
            bad += check(from_left.data(), left, 1, it, p, payload_digest);
            bad += check(from_right.data(), right, 2, it, p, payload_digest);
            local += static_cast<double>(from_left[p * kPartBytes / 8] & 0xffff);
          }
          double sum = 0;
          proxy.allreduce(&local, &sum, 1, smpi::Datatype::kDouble, smpi::Op::kSum);
          const std::int64_t t3 = sim::now().ns();
          if (r == 0) reduced_sum += sum;
          iter_us.push_back(static_cast<double>(t3 - t0) / 1000.0);
          wait_ns += static_cast<double>(t2 - t1);
          iter_ns += static_cast<double>(t3 - t0);
          first = std::min(first, t0);
          last = std::max(last, t3);
        }
        stop = true;
        go.arrive_and_wait();
        // The four persistent requests stay allocated through stop(): see
        // README.md, "Known defects" (request_free + stop with two engines).
        proxy.stop();
        const std::size_t held = proxy.inflight();
        leaked += held > reqs.size() ? held - reqs.size() : 0;
      });
    }
    o.host_s = static_cast<double>(host_ns() - h0) * 1e-9;
    set_capture(nullptr);

    const double span_us = static_cast<double>(last - first) / 1000.0;
    put_latency(o, iter_us);
    o.v["msg_rate"] = static_cast<double>(kIters) * kRanks * 2 * kFibers / span_us;
    o.v["goodput_rps"] = kIters / (span_us * 1e-6);
    o.v["max_rate_under_slo_rps"] = o.v["goodput_rps"];
    o.v["wait_frac"] = wait_ns / iter_ns;
    o.attempted = static_cast<std::uint64_t>(kIters) * kRanks * 2 * kFibers;
    o.failed = bad + leaked;
    o.digest = fold(fold_double(o.digest, reduced_sum), payload_digest);
    return o;
  }

 private:
  std::int64_t compute_ns(int r, int it, int f) const {
    return compute_ns_[static_cast<std::size_t>((r * kIters + it) * kFibers + f)];
  }
  static std::uint64_t part_key(std::uint64_t seed, int src, int face, int it,
                                int p) {
    return mix(seed ^ (static_cast<std::uint64_t>(src) << 48) ^
               (static_cast<std::uint64_t>(face) << 40) ^
               (static_cast<std::uint64_t>(it) << 16) ^ static_cast<std::uint64_t>(p));
  }
  /// Partition p of a face: 64-bit words key ^ index.
  void fill(std::uint64_t* face, int src, int tag, int it, int p) const {
    const std::uint64_t key = part_key(seed_, src, tag, it, p);
    std::uint64_t* w = face + p * kPartBytes / 8;
    for (std::size_t i = 0; i < kPartBytes / 8; ++i) w[i] = key ^ i;
  }
  /// 1 when received partition p differs from what `src` filled.
  int check(const std::uint64_t* face, int src, int tag, int it, int p,
            std::uint64_t& digest) const {
    const std::uint64_t key = part_key(seed_, src, tag, it, p);
    const std::uint64_t* w = face + p * kPartBytes / 8;
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < kPartBytes / 8; ++i) diff |= w[i] ^ (key ^ i);
    digest = fold(digest, w[0] ^ w[kPartBytes / 8 - 1]);
    return diff == 0 ? 0 : 1;
  }

  std::uint64_t seed_ = 0;
  std::vector<std::int64_t> compute_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_halo() { return std::make_unique<Halo>(); }

}  // namespace offbench
