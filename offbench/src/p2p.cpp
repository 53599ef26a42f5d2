// p2p_mt_small — closed-loop multithreaded small-message exchange.
//
// Two ranks, 8 app fibers each. Fiber f of one rank pairs with fiber f of
// the other (tag f). Per generation each fiber posts a window of 32 one-shot
// irecvs and 32 isends with seeded sizes in [8, 1024] bytes and real
// payloads, then waits for the whole window with one waitall. The
// per-message submit path (lanes, request pool, engine drain/testany) and
// fiber switching do almost all the work; rendezvous, collectives,
// continuations and persistent requests do none.
//
// waitall returns no Status, so the Status fields are checked through the
// payload: every receive is posted with the exact expected size (a longer
// message cannot match silently) and the 8-byte header plus every payload
// byte must equal what the sender derived from (seed, rank, fiber,
// generation, index).
#include <algorithm>
#include <climits>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"

namespace offbench {
namespace {

constexpr int kRanks = 2;
constexpr int kFibers = 8;
constexpr int kWindow = 32;
constexpr int kGens = 72;
constexpr std::size_t kMinBytes = 8, kMaxBytes = 1024;

class P2p final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    sizes_.assign(static_cast<std::size_t>(kRanks * kFibers * kGens * kWindow), 0);
    sim::Rng rng(mix(seed ^ 0x7032703270327032ull));
    for (auto& s : sizes_) {
      s = static_cast<std::uint16_t>(kMinBytes +
                                     rng.next_below(kMaxBytes - kMinBytes + 1));
    }
  }

  double setup_once(std::uint64_t seed) override {
    const std::int64_t t0 = host_ns();
    prepare(seed);
    return time_to_first_event(t0, pinned_cluster_config(kRanks));
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvBasis;
    for (std::uint16_t s : sizes_) h = fold(h, s);
    return fold(h, seed_);
  }

  std::string describe() const override {
    return "2 ranks x 8 fibers, window 32 isend+irecv, 72 generations, "
           "sizes 8..1024 B, offload proxies=2 lanes=16";
  }

  Outcome run() override {
    Outcome o;
    std::vector<double> window_us;
    double wait_ns = 0, window_ns = 0;
    std::int64_t first_post = INT64_MAX, last_done = 0;
    std::uint64_t bad = 0, leaked = 0;
    std::uint64_t payload_digest = kFnvBasis;

    set_capture(&o.layers);
    const std::int64_t h0 = host_ns();
    {
      smpi::Cluster cluster(pinned_cluster_config(kRanks));
      cluster.run([&](smpi::RankCtx& rc) {
        TracedProxy proxy(rc, pinned_proxy_options());
        proxy.start_engine();
        sim::Barrier done(kFibers + 1);
        const int r = rc.rank(), peer = 1 - r;
        for (int f = 0; f < kFibers; ++f) {
          rc.cluster().spawn_on(r, "app" + std::to_string(f), [&, f]() {
            std::vector<unsigned char> sbuf(kWindow * kMaxBytes);
            std::vector<unsigned char> rbuf(kWindow * kMaxBytes);
            std::vector<unsigned char> want(kMaxBytes);
            std::vector<core::PReq> reqs(2 * kWindow);
            for (int g = 0; g < kGens; ++g) {
              SpanScope win("bench.window", r, window_id(r, f, g));
              const std::int64_t t0 = sim::now().ns();
              for (int i = 0; i < kWindow; ++i) {
                reqs[static_cast<std::size_t>(i)] = proxy.irecv(
                    rbuf.data() + i * kMaxBytes, size_of(peer, f, g, i),
                    smpi::Datatype::kByte, peer, f);
              }
              for (int i = 0; i < kWindow; ++i) {
                unsigned char* s = sbuf.data() + i * kMaxBytes;
                fill(s, r, f, g, i);
                reqs[static_cast<std::size_t>(kWindow + i)] = proxy.isend(
                    s, size_of(r, f, g, i), smpi::Datatype::kByte, peer, f);
              }
              const std::int64_t t1 = sim::now().ns();
              proxy.waitall(reqs);
              const std::int64_t t2 = sim::now().ns();
              for (int i = 0; i < kWindow; ++i) {
                const std::size_t n = size_of(peer, f, g, i);
                fill(want.data(), peer, f, g, i);
                const unsigned char* got = rbuf.data() + i * kMaxBytes;
                if (std::memcmp(got, want.data(), n) != 0) ++bad;
                payload_digest = fold(payload_digest,
                                      fnv(got, n) ^ static_cast<std::uint64_t>(n));
              }
              window_us.push_back(static_cast<double>(t2 - t0) / 1000.0);
              wait_ns += static_cast<double>(t2 - t1);
              window_ns += static_cast<double>(t2 - t0);
              first_post = std::min(first_post, t0);
              last_done = std::max(last_done, t2);
            }
            done.arrive_and_wait();
          });
        }
        done.arrive_and_wait();
        proxy.stop();
        leaked += proxy.inflight();
      });
    }
    o.host_s = static_cast<double>(host_ns() - h0) * 1e-9;
    set_capture(nullptr);

    const double msgs = static_cast<double>(kRanks) * kFibers * kGens * kWindow;
    const double span_us = static_cast<double>(last_done - first_post) / 1000.0;
    const double windows = static_cast<double>(window_us.size());
    put_latency(o, window_us);
    o.v["msg_rate"] = msgs / span_us;
    o.v["goodput_rps"] = windows / (span_us * 1e-6);
    o.v["max_rate_under_slo_rps"] = o.v["goodput_rps"];
    o.v["wait_frac"] = wait_ns / window_ns;
    o.attempted = static_cast<std::uint64_t>(msgs);
    o.failed = bad + leaked;
    o.digest = fold(o.digest, payload_digest);
    return o;
  }

 private:
  std::size_t size_of(int r, int f, int g, int i) const {
    return sizes_[static_cast<std::size_t>(((r * kFibers + f) * kGens + g) * kWindow + i)];
  }
  static std::uint64_t window_id(int r, int f, int g) {
    return 1 + static_cast<std::uint64_t>((r * kFibers + f) * kGens + g);
  }
  /// Header (source rank, fiber, generation, index) then a pattern derived
  /// from the seed and the same coordinates.
  void fill(unsigned char* p, int r, int f, int g, int i) const {
    const std::size_t n = size_of(r, f, g, i);
    const std::uint64_t key =
        mix(seed_ ^ (static_cast<std::uint64_t>(r) << 56) ^
            (static_cast<std::uint64_t>(f) << 48) ^
            (static_cast<std::uint64_t>(g) << 16) ^ static_cast<std::uint64_t>(i));
    const std::uint64_t header = (static_cast<std::uint64_t>(r) << 56) |
                                 (static_cast<std::uint64_t>(f) << 48) |
                                 (static_cast<std::uint64_t>(g) << 16) |
                                 static_cast<std::uint64_t>(i);
    std::memcpy(p, &header, 8);
    for (std::size_t b = 8; b < n; b += 8) {
      const std::uint64_t w = key ^ (b * 0x9e3779b97f4a7c15ull);
      std::memcpy(p + b, &w, std::min<std::size_t>(8, n - b));
    }
  }
  static std::uint64_t fnv(const unsigned char* p, std::size_t n) {
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
    return h;
  }

  std::uint64_t seed_ = 0;
  std::vector<std::uint16_t> sizes_;
};

}  // namespace

std::unique_ptr<Workload> make_p2p() { return std::make_unique<P2p>(); }

}  // namespace offbench
