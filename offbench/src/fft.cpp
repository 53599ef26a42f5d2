// fft_alltoall — fft::run_fft_perf, the SOI pipelined ialltoall (Fig 13 /
// Table 2), with phantom payloads on 16 ranks.
//
// Large collective schedules and the per-512 KiB rendezvous chunk events do
// the work; lanes and continuations sit nearly idle. The seed picks the
// problem size: 2^24 points per node plus a seeded multiple of 2^12 (at most
// 1.5% more), so every seed gives a different transform.
//
// run_fft_perf reports phase times of rank 0 averaged over its measured
// iterations, so the latency percentiles here have one sample: the mean
// transform time.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "apps/fft/distributed_fft.hpp"
#include "bench.hpp"

namespace offbench {
namespace {

constexpr int kNodes = 16;
constexpr std::size_t kBasePoints = std::size_t{1} << 24;
constexpr std::size_t kStep = std::size_t{1} << 12;
constexpr std::uint64_t kSteps = 64;

class Fft final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    cfg_ = fft::FftPerfConfig{};
    cfg_.nodes = kNodes;
    cfg_.ranks_per_node = 1;
    cfg_.points_per_node = kBasePoints + kStep * (mix(seed ^ 0xff7ull) % kSteps);
    cfg_.profile = machine::xeon_fdr();
    cfg_.approach = core::Approach::kOffload;
    cfg_.segments = 8;
    cfg_.iters = 2;
    cfg_.warmup = 1;
    cfg_.flops_per_ns_thread = 1.0;
    cfg_.soi_compute_factor = 1.25;
    cfg_.bisection_exponent = 0.6;
  }

  double setup_once(std::uint64_t seed) override {
    const std::int64_t t0 = host_ns();
    prepare(seed);
    // The Cluster run_fft_perf builds for this configuration.
    smpi::ClusterConfig cc;
    cc.nranks = cfg_.nodes * cfg_.ranks_per_node;
    cc.profile = cfg_.profile;
    cc.profile.bisection_bytes_per_ns =
        cc.profile.net_bytes_per_ns * std::pow(cc.nranks, cfg_.bisection_exponent);
    cc.thread_level = core::required_thread_level(cfg_.approach);
    cc.deadline = sim::Time::from_sec(36000);
    return time_to_first_event(t0, cc);
  }

  std::uint64_t input_digest() const override {
    return fold(kFnvBasis, cfg_.points_per_node);
  }

  std::string describe() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "16 ranks, %zu points/node, 8 segments, 2 iterations + 1 "
                  "warmup, phantom payloads, offload",
                  cfg_.points_per_node);
    return buf;
  }

  Outcome run() override {
    Outcome o;
    fft::FftPerfResult r;
    set_capture(&o.layers);
    const std::int64_t h0 = host_ns();
    try {
      r = fft::run_fft_perf(cfg_);
    } catch (const std::exception& e) {
      std::printf("fft_alltoall: run failed: %s\n", e.what());
      o.failed = 1;
    }
    o.host_s = static_cast<double>(host_ns() - h0) * 1e-9;
    set_capture(nullptr);
    o.attempted = 1;
    if (o.failed != 0 || r.total_ms <= 0) {
      o.failed = 1;
      return o;
    }

    const double n = cfg_.nodes * cfg_.ranks_per_node;
    put_latency(o, {r.total_ms * 1000.0});
    // Application messages: one block per (rank, peer) pair per segment.
    o.v["msg_rate"] = cfg_.segments * n * (n - 1) / (r.total_ms * 1000.0);
    o.v["goodput_rps"] = 1000.0 / r.total_ms;
    o.v["max_rate_under_slo_rps"] = o.v["goodput_rps"];
    o.v["wait_frac"] = r.wait_ms / r.total_ms;
    o.v_layer["apps.fft.internal_ms"] = r.internal_ms;
    o.v_layer["apps.fft.post_ms"] = r.post_ms;
    o.v_layer["apps.fft.wait_ms"] = r.wait_ms;
    o.v_layer["apps.fft.misc_ms"] = r.misc_ms;
    o.v_layer["apps.fft.gflops"] = r.gflops;
    for (double d : {r.internal_ms, r.post_ms, r.wait_ms, r.misc_ms, r.gflops}) {
      o.digest = fold_double(o.digest, d);
    }
    return o;
  }

 private:
  fft::FftPerfConfig cfg_;
};

}  // namespace

std::unique_ptr<Workload> make_fft() { return std::make_unique<Fft>(); }

}  // namespace offbench
