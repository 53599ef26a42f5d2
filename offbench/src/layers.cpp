// offbench — statistics helpers, the span log, per-layer counter
// collection and the traced offload proxy.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench.hpp"

namespace offbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::uint64_t fold_double(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return fold(h, bits);
}

// ---------------------------------------------------------------- spans ----

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

std::int32_t SpanLog::begin(const char* name, int rank, std::uint64_t group) {
  if (!on_) return -1;
  const sim::Fiber* f = sim::Engine::current()->current_fiber();
  Span s;
  s.name = name;
  s.rank = rank;
  if (auto it = open_.find(f); it != open_.end() && it->second >= 0) {
    s.parent = it->second;
    if (group == 0) group = spans_[static_cast<std::size_t>(s.parent)].group;
  }
  s.group = group;
  s.v_start = sim::now().ns();
  s.h_start = host_ns();
  spans_.push_back(s);
  const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
  open_[f] = idx;
  return idx;
}

void SpanLog::end(std::int32_t idx) {
  if (idx < 0) return;
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.h_end = host_ns();
  s.v_end = sim::now().ns();
  open_[sim::Engine::current()->current_fiber()] = s.parent;
}

std::vector<double> SpanLog::v_durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.v_end - s.v_start));
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"ph\":\"X\",\"name\":\"" << s.name
       << "\",\"pid\":" << s.rank << ",\"tid\":" << s.group
       << ",\"ts\":" << static_cast<double>(s.v_start) / 1000.0
       << ",\"dur\":" << static_cast<double>(s.v_end - s.v_start) / 1000.0
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"group\":" << s.group << ",\"host_ns\":" << (s.h_end - s.h_start)
       << "}}";
  }
  os << "\n]}\n";
}

// --------------------------------------------------------------- layers ----

namespace {
Layers* g_capture = nullptr;
}  // namespace

void set_capture(Layers* l) { g_capture = l; }
Layers* capture() { return g_capture; }

void Layers::add_cluster(smpi::Cluster& c) {
  const sim::EngineStats& e = c.engine().stats();
  engine.events_fired += e.events_fired;
  engine.fibers_spawned += e.fibers_spawned;
  engine.context_switches += e.context_switches;
  net_messages += c.network().stats().messages;
  net_bytes += c.network().stats().bytes;
  for (int r = 0; r < c.nranks(); ++r) {
    const smpi::RankStats& s = c.rank(r).stats();
    mpi.calls += s.calls;
    mpi.progress_passes += s.progress_passes;
    mpi.eager_sends += s.eager_sends;
    mpi.rndv_sends += s.rndv_sends;
    mpi.unexpected_hits += s.unexpected_hits;
    mpi.time_in_mpi += s.time_in_mpi;
    const smpi::CollStats& cs = c.rank(r).coll_stats();
    coll_chunks += cs.chunks;
    coll_chunk_time += cs.chunk_time;
    doorbells_amortized += cs.doorbells_amortized;
  }
}

void Layers::add_channel(const core::OffloadStats& s) {
  core.commands += s.commands;
  core.testany_calls += s.testany_calls;
  core.completions += s.completions;
  core.max_inflight = std::max(core.max_inflight, s.max_inflight);
  core.lane_submits += s.lane_submits;
  core.overflow_submits += s.overflow_submits;
  core.lane_full_stalls += s.lane_full_stalls;
  core.pool_full_stalls += s.pool_full_stalls;
  core.steal_commands += s.steal_commands;
  core.engine_spins += s.engine_spins;
  core.engine_yields += s.engine_yields;
  core.engine_sleeps += s.engine_sleeps;
  core.cont_executed += s.cont_executed;
  core.cont_deferred += s.cont_deferred;
  core.cont_posts += s.cont_posts;
}

double time_to_first_event(std::int64_t t0, const smpi::ClusterConfig& cfg) {
  std::int64_t first = 0;
  smpi::Cluster cluster(cfg);
  cluster.run([&](smpi::RankCtx&) {
    if (first == 0) first = host_ns();
  });
  return static_cast<double>(first - t0) * 1e-9;
}

void put_latency(Outcome& o, std::vector<double> samples_us) {
  const auto n = static_cast<std::uint64_t>(samples_us.size());
  o.v["lat_p50_us"] = percentile(samples_us, 0.50);
  o.v["lat_p99_us"] = percentile(samples_us, 0.99);
  o.v["lat_p999_us"] = percentile(samples_us, 0.999);
  for (const char* k : {"lat_p50_us", "lat_p99_us", "lat_p999_us"}) o.samples[k] = n;
  for (double s : samples_us) o.digest = fold_double(o.digest, s);
}

// -------------------------------------------------------- traced proxy ----

core::ProxyOptions pinned_proxy_options() {
  core::ProxyOptions o;
  o.ring_capacity = 1024;
  o.pool_capacity = 4096;
  o.lane_count = 16;
  o.lane_capacity = 64;
  o.lane_drain_bound = 16;
  o.batch_flush = 8;
  o.watchdog_budget = sim::Time::from_ms(500);
  o.cont_run_bound = 16;
  o.proxy_count = 2;
  o.steal_bound = 8;
  return o;
}

smpi::ClusterConfig pinned_cluster_config(int nranks) {
  smpi::ClusterConfig cc;
  cc.nranks = nranks;
  cc.profile = machine::xeon_fdr();
  cc.thread_level = core::required_thread_level(core::Approach::kOffload);
  cc.deadline = sim::Time::from_sec(60);
  cc.coll_spec = "seg:65536,chains:8";
  cc.san_spec = "0";
  return cc;
}

TracedProxy::~TracedProxy() {
  if (Layers* l = capture()) l->add_channel(channel().stats());
}

core::PReq TracedProxy::isend(const void* b, std::size_t n, smpi::Datatype dt,
                              int dst, int tag, smpi::Comm c) {
  SpanScope s("core.submit", rank_);
  return OffloadProxy::isend(b, n, dt, dst, tag, c);
}

core::PReq TracedProxy::irecv(void* b, std::size_t n, smpi::Datatype dt,
                              int src, int tag, smpi::Comm c) {
  SpanScope s("core.submit", rank_);
  return OffloadProxy::irecv(b, n, dt, src, tag, c);
}

core::PReq TracedProxy::ialltoall(const void* sb, void* rb, std::size_t n_per,
                                  smpi::Datatype dt, smpi::Comm c) {
  SpanScope s("core.submit", rank_);
  return OffloadProxy::ialltoall(sb, rb, n_per, dt, c);
}

void TracedProxy::startall(std::span<core::PersistentReq> rs) {
  SpanScope s("core.submit", rank_);
  OffloadProxy::startall(rs);
}

void TracedProxy::pready(core::PersistentReq& r, std::uint32_t p) {
  SpanScope s("core.submit", rank_);
  OffloadProxy::pready(r, p);
}

void TracedProxy::wait(core::PReq& r, smpi::Status* st) {
  SpanScope s("core.wait", rank_);
  OffloadProxy::wait(r, st);
}

void TracedProxy::waitall(std::span<core::PReq> rs) {
  SpanScope s("core.wait", rank_);
  OffloadProxy::waitall(rs);
}

void TracedProxy::wait(core::PersistentReq& r, smpi::Status* st) {
  SpanScope s("core.wait", rank_);
  OffloadProxy::wait(r, st);
}

}  // namespace offbench
