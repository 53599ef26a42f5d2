// serve_open — serve::run_serve, the sharded parameter-server tier under a
// 150 us SLO, driven open-loop.
//
// 2 edges x 2 shards x 8 workers, window 32. The only workload with tail
// latency under load, cont::when_any hedging, reactive continuation graphs
// and mixed eager/rendezvous sizes. Latency is timed from each request's
// intended arrival. Reported at one nominal rate below the knee, plus the
// highest rate on a fixed ladder (spanning the knee) that meets the SLO.
#include <cstdio>

#include "apps/serve/serve.hpp"
#include "bench.hpp"

namespace offbench {
namespace {

constexpr std::size_t kRequests = 16000;       ///< per edge, nominal run
constexpr std::size_t kLadderRequests = 10000;  ///< per edge, per ladder rung
constexpr double kNominalRps = 1.5e6;
/// Offered rates (req/s, both edges together), finer around the knee,
/// which lies between 2.6M and 2.9M depending on the seed.
constexpr double kLadder[] = {2.4e6, 2.5e6, 2.6e6, 2.7e6, 2.8e6, 2.9e6, 3.0e6, 3.2e6};

serve::ServeConfig config(std::uint64_t seed, double rps, std::size_t requests) {
  serve::ServeConfig c;
  c.approach = core::Approach::kOffload;
  c.edges = 2;
  c.shards = 2;
  c.workers = 8;
  c.requests = requests;
  c.window = 32;
  c.traffic.seed = seed;
  c.traffic.clients = 4u << 20;
  // Per-edge mean gap; the diurnal multiplier averages 1 over a cycle.
  c.traffic.mean_interarrival =
      sim::Time::from_ns(static_cast<std::int64_t>(c.edges * 1e9 / rps));
  c.traffic.phases = 4;
  c.traffic.phase_len = sim::Time::from_us(150);
  c.traffic.alpha = 1.3;
  c.traffic.smin = 64;
  c.traffic.smax = 16384;
  c.traffic.hedge = 0.1;
  c.slo = sim::Time::from_us(150);
  c.service_base = sim::Time::from_us(2);
  c.service_per_kb = sim::Time::from_ns(200);
  c.rounds = 8;
  c.update = 64;
  c.proxy_count = 2;
  c.faults = false;
  c.deadline = sim::Time::from_sec(60);
  return c;
}

class Serve final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    cfg_ = config(seed, kNominalRps, kRequests);
    // The arrival streams run_serve will generate: the worker service
    // demand (for wait_frac) follows from them.
    busy_ns_ = 0;
    inputs_ = kFnvBasis;
    for (int e = 0; e < cfg_.edges; ++e) {
      serve::TrafficGen gen(cfg_.traffic, e);
      for (std::size_t n = 0; n < cfg_.requests; ++n) {
        const serve::Arrival a = gen.next();
        const auto kb = static_cast<std::int64_t>((a.req_bytes + a.resp_bytes) / 1024);
        const sim::Time t = cfg_.service_base + cfg_.service_per_kb * kb;
        busy_ns_ += static_cast<double>(t.ns()) * (a.hedged ? 2 : 1);
        inputs_ = fold(fold(fold(inputs_, static_cast<std::uint64_t>(a.at.ns())), a.key),
                       (static_cast<std::uint64_t>(a.req_bytes) << 32) | a.resp_bytes);
      }
    }
  }

  double setup_once(std::uint64_t seed) override {
    const std::int64_t t0 = host_ns();
    prepare(seed);
    // The Cluster run_serve builds for this configuration.
    smpi::ClusterConfig cc;
    cc.nranks = cfg_.edges + cfg_.shards;
    cc.thread_level = core::required_thread_level(cfg_.approach);
    cc.deadline = cfg_.deadline;
    return time_to_first_event(t0, cc);
  }

  std::uint64_t input_digest() const override { return inputs_; }

  std::string describe() const override {
    return "2 edges x 2 shards x 8 workers, window 32, SLO 150 us, nominal "
           "1.5M req/s, 16000 requests/edge, ladder 2.4M..3.2M req/s x 10000 "
           "requests/edge, offload proxies=2";
  }

  Outcome run() override {
    Outcome o;
    set_capture(&o.layers);
    const std::int64_t h0 = host_ns();
    const serve::ServeResult r = serve::run_serve(cfg_);
    o.host_s = static_cast<double>(host_ns() - h0) * 1e-9;
    set_capture(nullptr);

    const double makespan_us = static_cast<double>(r.makespan.ns()) / 1000.0;
    o.v["lat_p50_us"] = r.p50_us;
    o.v["lat_p99_us"] = r.p99_us;
    o.v["lat_p999_us"] = r.p999_us;
    for (const char* k : {"lat_p50_us", "lat_p99_us", "lat_p999_us"}) o.samples[k] = r.responses;
    // Requests and responses, each hedged copy counted.
    o.v["msg_rate"] = 2.0 * static_cast<double>(r.requests + r.hedged) / makespan_us;
    o.v["goodput_rps"] = r.goodput_rps;
    // Worker fibers are the app threads: the share of their time not spent
    // serving is time blocked waiting for work or a response buffer.
    o.v["wait_frac"] =
        1.0 - busy_ns_ / (cfg_.shards * cfg_.workers * makespan_us * 1000.0);
    o.v_layer["apps.serve.offered_rps"] = r.offered_rps;
    o.v_layer["apps.serve.hedged"] = static_cast<double>(r.hedged);
    o.v_layer["apps.serve.hedge_wins"] = static_cast<double>(r.hedge_wins);
    o.v_layer["apps.serve.makespan_us"] = makespan_us;
    o.v_layer["apps.serve.slo_miss"] = static_cast<double>(r.slo_miss);
    o.v_layer["apps.serve.cont_executed"] = static_cast<double>(r.cont_executed);
    o.v_layer["apps.serve.cont_posts"] = static_cast<double>(r.cont_posts);
    o.v_layer["apps.serve.steal_commands"] = static_cast<double>(r.steal_commands);
    o.attempted = r.requests;
    o.failed = r.requests - r.responses + r.checksum_fail;
    for (std::uint64_t d : {r.payload_digest, r.update_digest, r.histogram_digest}) {
      o.digest = fold(o.digest, d);
    }
    return o;
  }

  /// The offered-rate ladder, climbed until the first rung that misses:
  /// a rung meets the SLO when its p99 is within it and its goodput over
  /// the offering window (SLO-met responses per second of arrivals) is at
  /// least 99% of the offered rate. A growing backlog fails both.
  void extra(Outcome& o) override {
    double best = 0;
    for (double rps : kLadder) {
      const serve::ServeResult r = serve::run_serve(config(seed_, rps, kLadderRequests));
      const double window_goodput =
          r.offered_rps * static_cast<double>(r.slo_ok) / static_cast<double>(r.requests);
      const bool ok = r.p99_us <= 150.0 && window_goodput >= 0.99 * r.offered_rps &&
                      r.responses == r.requests && r.checksum_fail == 0;
      std::printf("  ladder %.2fM req/s: offered %.0f p99 %.1f us goodput %.0f %s\n",
                  rps / 1e6, r.offered_rps, r.p99_us, window_goodput,
                  ok ? "meets SLO" : "misses SLO");
      o.attempted += r.requests;
      o.failed += r.requests - r.responses + r.checksum_fail;
      if (!ok) break;
      best = r.offered_rps;
    }
    o.v["max_rate_under_slo_rps"] = best;
  }

 private:
  std::uint64_t seed_ = 0;
  serve::ServeConfig cfg_;
  double busy_ns_ = 0;
  std::uint64_t inputs_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve() { return std::make_unique<Serve>(); }

}  // namespace offbench
