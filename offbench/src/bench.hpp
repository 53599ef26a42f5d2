// offbench — shared types of the repository benchmark.
//
// Two clocks, kept apart everywhere:
//   * virtual (v): simulated time, the product. Deterministic for a seed.
//   * host (h): wall time the simulator needs to produce it. Noisy.
//
// A workload turns a seed into inputs (prepare), measures its own set-up
// (setup_once) and runs the simulated job once per call (run). The runner in
// main.cpp repeats run() for the requested number of host seconds, checks
// every repetition reproduces the same virtual results, and prints metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/offload_engine.hpp"
#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "sim/engine.hpp"

namespace offbench {

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of a copy (even count: mean of the middle two).
double median(std::vector<double> v);

/// Nearest-rank percentile over raw samples, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// FNV-1a, folded one 64-bit value at a time (digests of v results).
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}
std::uint64_t fold_double(std::uint64_t h, double d);
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// splitmix64: per-element values derived from (seed, coordinates).
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------- spans ----

/// One span of the traced run: a call into a layer, recorded by the
/// benchmark around the call. Reads sim::now() (never advances the clock),
/// so recording spans cannot change any virtual result.
struct Span {
  const char* name = "";
  std::uint64_t group = 0;  ///< window / iteration / run the span belongs to
  std::int32_t parent = -1; ///< index of the enclosing span, -1 for a root
  std::int32_t rank = -1;
  std::int64_t v_start = 0, v_end = 0;  ///< virtual ns
  std::int64_t h_start = 0, h_end = 0;  ///< host ns (includes other fibers'
                                        ///  turns when the call yields)
};

/// In-memory span store. Off unless the traced run enables it; every entry
/// point is one branch when off. Spans nest per fiber: a span opened on a
/// fiber becomes the parent of the next one opened there, and a span with
/// no group of its own inherits its parent's.
class SpanLog {
 public:
  static SpanLog& get();
  void enable(bool on) { on_ = on; }
  void clear() {
    spans_.clear();
    open_.clear();
  }

  /// Open a span on the calling fiber; returns its index, or -1 when off.
  std::int32_t begin(const char* name, int rank, std::uint64_t group = 0);
  void end(std::int32_t idx);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Virtual durations (ns) of every span with this name.
  [[nodiscard]] std::vector<double> v_durations(const std::string& name) const;
  /// Write all spans as Chrome trace-event JSON (virtual-time axis; host
  /// times and the parent link ride in each event's args).
  void write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::map<const sim::Fiber*, std::int32_t> open_;  ///< innermost per fiber
};

/// RAII span around one call.
class SpanScope {
 public:
  SpanScope(const char* name, int rank, std::uint64_t group = 0)
      : idx_(SpanLog::get().begin(name, rank, group)) {}
  ~SpanScope() { SpanLog::get().end(idx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int32_t idx_;
};

// --------------------------------------------------------------- layers ----

/// Per-layer counters of one simulated run, summed over ranks (max for the
/// high-water marks). Read through the program's public stats accessors.
struct Layers {
  sim::EngineStats engine;
  std::uint64_t net_messages = 0, net_bytes = 0;
  smpi::RankStats mpi;  ///< summed (time_in_mpi summed over ranks)
  std::uint64_t coll_chunks = 0, doorbells_amortized = 0;
  sim::Time coll_chunk_time;
  core::OffloadStats core;  ///< summed; max_inflight is the max over ranks

  void add_cluster(smpi::Cluster& c);
  void add_channel(const core::OffloadStats& s);
};

/// Capture point for clusters and offload channels the benchmark does not
/// own (run_serve / run_fft_perf): src/hooks.cpp feeds the active capture.
void set_capture(Layers* l);
Layers* capture();

/// The offload proxy every workload runs, plus the benchmark's spans around
/// the calls into the core layer ("core.submit", "core.wait") and a stats
/// hand-off at destruction: the channel's counters go to capture(), after
/// stop() and before the channel is destroyed. Behaviour and virtual time
/// are OffloadProxy's own — each override records a span and forwards.
class TracedProxy : public core::OffloadProxy {
 public:
  TracedProxy(smpi::RankCtx& rc, const core::ProxyOptions& opts)
      : OffloadProxy(rc, opts), rank_(rc.rank()) {}
  ~TracedProxy() override;
  TracedProxy(const TracedProxy&) = delete;
  TracedProxy& operator=(const TracedProxy&) = delete;

  core::PReq isend(const void* b, std::size_t n, smpi::Datatype dt, int dst,
                   int tag, smpi::Comm c = smpi::kCommWorld) override;
  core::PReq irecv(void* b, std::size_t n, smpi::Datatype dt, int src, int tag,
                   smpi::Comm c = smpi::kCommWorld) override;
  core::PReq ialltoall(const void* s, void* r, std::size_t n_per,
                       smpi::Datatype dt,
                       smpi::Comm c = smpi::kCommWorld) override;
  void startall(std::span<core::PersistentReq> rs) override;
  void pready(core::PersistentReq& r, std::uint32_t p) override;
  void wait(core::PReq& r, smpi::Status* st = nullptr) override;
  void waitall(std::span<core::PReq> rs) override;
  void wait(core::PersistentReq& r, smpi::Status* st = nullptr) override;

 private:
  int rank_;
};

/// Offload tuning pinned by the benchmark: the xeon_fdr profile defaults
/// (ProxyOptions::defaults_for), written out so no environment can move them.
core::ProxyOptions pinned_proxy_options();

/// Cluster configuration of the workloads that own their Cluster: xeon_fdr,
/// the offload approach's thread level, the profile's collective defaults
/// written out as a coll_spec, sanitizer off, a 60 s virtual deadline.
smpi::ClusterConfig pinned_cluster_config(int nranks);

// ------------------------------------------------------------- workload ----

using MetricMap = std::map<std::string, double>;

/// Result of one simulated run.
struct Outcome {
  MetricMap v;                 ///< virtual end-to-end metrics
  MetricMap v_layer;           ///< virtual per-layer metrics (apps.*)
  std::map<std::string, std::uint64_t> samples;  ///< sample count per metric
  std::uint64_t digest = kFnvBasis;  ///< all v results + payload checksums
  std::uint64_t attempted = 0, failed = 0;
  Layers layers;
  double host_s = 0;  ///< wall time of the simulated run itself
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the inputs from the seed (the same seed, the same inputs).
  virtual void prepare(std::uint64_t seed) = 0;
  /// One set-up measurement in host seconds: input generation plus Cluster
  /// construction, up to the first simulated event.
  virtual double setup_once(std::uint64_t seed) = 0;
  /// One complete simulated run; fills every Outcome field.
  virtual Outcome run() = 0;
  /// Extra virtual-only measurements made once per invocation (serve: the
  /// offered-rate ladder). Runs after the first run().
  virtual void extra(Outcome& /*first*/) {}
  /// One-line description of the pinned inputs for the human-readable log.
  [[nodiscard]] virtual std::string describe() const = 0;
  /// Digest of the inputs prepare() generated (differs between seeds).
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
};

std::unique_ptr<Workload> make_p2p();
std::unique_ptr<Workload> make_halo();
std::unique_ptr<Workload> make_fft();
std::unique_ptr<Workload> make_serve();

/// Host seconds from `t0` (host_ns) to the first entry of a rank_main in a
/// fresh Cluster built from `cfg` — the common tail of every setup_once.
double time_to_first_event(std::int64_t t0, const smpi::ClusterConfig& cfg);

/// Latency/count metrics shared by the closed-loop workloads.
void put_latency(Outcome& o, std::vector<double> samples_us);

}  // namespace offbench
