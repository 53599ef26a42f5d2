// offbench — the repository benchmark runner.
//
//   offbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans <file>]
//
// One invocation measures one workload:
//   1. set-up: prepare inputs and build the workload's Cluster up to its
//      first simulated event, kSetupReps times; setup_s is the median;
//   2. a first run: the reference virtual results (and, untraced, the
//      workload's extra measurements such as the serve rate ladder);
//   3. repeated runs until --seconds of host time have been spent. Every
//      run must reproduce the first run's digest of virtual results
//      bit for bit. host_s is the median wall time of these runs.
// With --trace 1 the runs in step 3 alternate untraced and traced (spans
// on). Per-layer metrics come from the last traced run; the host-time cost
// of tracing is bench.trace_overhead_frac; traced runs must reproduce the
// untraced digest exactly.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench.hpp"

extern char** environ;

namespace offbench {
namespace {

constexpr int kSetupReps = 31;
constexpr int kMinReps = 3;

struct Metric {
  const char* name;
  const char* unit;
  const char* clock;  ///< "v" virtual, "h" host
};

// The end-to-end metrics, reported on every workload (README.md defines
// each per workload). Must match BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s", "h"},
    {"host_s", "s", "h"},
    {"peak_rss_mb", "MiB", "h"},
    {"lat_p50_us", "us", "v"},
    {"lat_p99_us", "us", "v"},
    {"lat_p999_us", "us", "v"},
    {"msg_rate", "msgs/us", "v"},
    {"goodput_rps", "req/s", "v"},
    {"max_rate_under_slo_rps", "req/s", "v"},
    {"wait_frac", "ratio", "v"},
};

// The per-layer metrics of the traced run. Must match BENCHMARK.json.
constexpr Metric kPerLayer[] = {
    {"sim.events", "count", "v"},
    {"sim.context_switches", "count", "v"},
    {"sim.fibers_spawned", "count", "v"},
    {"sim.host_ns_per_event", "ns", "h"},
    {"sim.switches_per_event", "ratio", "v"},
    {"machine.net_messages", "count", "v"},
    {"machine.net_bytes", "B", "v"},
    {"machine.bytes_per_net_message", "B", "v"},
    {"mpi.calls", "count", "v"},
    {"mpi.progress_passes", "count", "v"},
    {"mpi.eager_sends", "count", "v"},
    {"mpi.rndv_sends", "count", "v"},
    {"mpi.unexpected_hits", "count", "v"},
    {"mpi.busy_us", "us", "v"},
    {"mpi.coll_chunks", "count", "v"},
    {"mpi.coll_chunk_us", "us", "v"},
    {"mpi.doorbells_amortized", "count", "v"},
    {"core.submit_ns.p50", "ns", "v"},
    {"core.submit_ns.p99", "ns", "v"},
    {"core.wait_us.p50", "us", "v"},
    {"core.wait_us.p99", "us", "v"},
    {"core.commands", "count", "v"},
    {"core.completions", "count", "v"},
    {"core.testany_calls", "count", "v"},
    {"core.completions_per_testany", "ratio", "v"},
    {"core.max_inflight", "count", "v"},
    {"core.lane_submits", "count", "v"},
    {"core.overflow_submits", "count", "v"},
    {"core.lane_full_stalls", "count", "v"},
    {"core.pool_full_stalls", "count", "v"},
    {"core.steal_commands", "count", "v"},
    {"core.engine_spins", "count", "v"},
    {"core.engine_yields", "count", "v"},
    {"core.engine_sleeps", "count", "v"},
    {"core.idle_polls_per_command", "ratio", "v"},
    {"core.cont_executed", "count", "v"},
    {"core.cont_deferred", "count", "v"},
    {"core.cont_posts", "count", "v"},
    {"apps.fft.internal_ms", "ms", "v"},
    {"apps.fft.post_ms", "ms", "v"},
    {"apps.fft.wait_ms", "ms", "v"},
    {"apps.fft.misc_ms", "ms", "v"},
    {"apps.fft.gflops", "GFLOP/s", "v"},
    {"apps.serve.offered_rps", "req/s", "v"},
    {"apps.serve.hedged", "count", "v"},
    {"apps.serve.hedge_wins", "count", "v"},
    {"apps.serve.makespan_us", "us", "v"},
    {"apps.serve.slo_miss", "count", "v"},
    {"apps.serve.cont_executed", "count", "v"},
    {"apps.serve.cont_posts", "count", "v"},
    {"apps.serve.steal_commands", "count", "v"},
    {"bench.trace_overhead_frac", "ratio", "h"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "offbench: %s\nusage: offbench --workload "
               "<p2p_mt_small|halo_partitioned|fft_alltoall|serve_open> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n",
               why);
  return 2;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "p2p_mt_small") return make_p2p();
  if (name == "halo_partitioned") return make_halo();
  if (name == "fft_alltoall") return make_fft();
  if (name == "serve_open") return make_serve();
  return nullptr;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The digest every run must reproduce: the workload's own (payloads,
/// latency samples) folded with every virtual metric it reported.
std::uint64_t v_digest(const Outcome& o) {
  std::uint64_t h = o.digest;
  for (const auto& [k, v] : o.v) h = fold_double(fold(h, std::hash<std::string>{}(k)), v);
  for (const auto& [k, v] : o.v_layer) h = fold_double(fold(h, std::hash<std::string>{}(k)), v);
  return h;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

MetricMap layer_metrics(const Outcome& o, double untraced_host_s, double overhead) {
  const Layers& l = o.layers;
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  MetricMap m;
  const double events = d(l.engine.events_fired);
  m["sim.events"] = events;
  m["sim.context_switches"] = d(l.engine.context_switches);
  m["sim.fibers_spawned"] = d(l.engine.fibers_spawned);
  m["sim.host_ns_per_event"] = ratio(untraced_host_s * 1e9, events);
  m["sim.switches_per_event"] = ratio(d(l.engine.context_switches), events);
  m["machine.net_messages"] = d(l.net_messages);
  m["machine.net_bytes"] = d(l.net_bytes);
  m["machine.bytes_per_net_message"] = ratio(d(l.net_bytes), d(l.net_messages));
  m["mpi.calls"] = d(l.mpi.calls);
  m["mpi.progress_passes"] = d(l.mpi.progress_passes);
  m["mpi.eager_sends"] = d(l.mpi.eager_sends);
  m["mpi.rndv_sends"] = d(l.mpi.rndv_sends);
  m["mpi.unexpected_hits"] = d(l.mpi.unexpected_hits);
  m["mpi.busy_us"] = static_cast<double>(l.mpi.time_in_mpi.ns()) / 1000.0;
  m["mpi.coll_chunks"] = d(l.coll_chunks);
  m["mpi.coll_chunk_us"] =
      ratio(static_cast<double>(l.coll_chunk_time.ns()) / 1000.0, d(l.coll_chunks));
  m["mpi.doorbells_amortized"] = d(l.doorbells_amortized);
  const SpanLog& log = SpanLog::get();
  const std::vector<double> submit = log.v_durations("core.submit");
  std::vector<double> wait = log.v_durations("core.wait");
  for (double& w : wait) w /= 1000.0;
  m["core.submit_ns.p50"] = percentile(submit, 0.50);
  m["core.submit_ns.p99"] = percentile(submit, 0.99);
  m["core.wait_us.p50"] = percentile(wait, 0.50);
  m["core.wait_us.p99"] = percentile(wait, 0.99);
  const core::OffloadStats& c = l.core;
  m["core.commands"] = d(c.commands);
  m["core.completions"] = d(c.completions);
  m["core.testany_calls"] = d(c.testany_calls);
  m["core.completions_per_testany"] = ratio(d(c.completions), d(c.testany_calls));
  m["core.max_inflight"] = d(c.max_inflight);
  m["core.lane_submits"] = d(c.lane_submits);
  m["core.overflow_submits"] = d(c.overflow_submits);
  m["core.lane_full_stalls"] = d(c.lane_full_stalls);
  m["core.pool_full_stalls"] = d(c.pool_full_stalls);
  m["core.steal_commands"] = d(c.steal_commands);
  m["core.engine_spins"] = d(c.engine_spins);
  m["core.engine_yields"] = d(c.engine_yields);
  m["core.engine_sleeps"] = d(c.engine_sleeps);
  m["core.idle_polls_per_command"] =
      ratio(d(c.engine_spins + c.engine_yields), d(c.commands));
  m["core.cont_executed"] = d(c.cont_executed);
  m["core.cont_deferred"] = d(c.cont_deferred);
  m["core.cont_posts"] = d(c.cont_posts);
  for (const Metric& k : kPerLayer) {
    if (std::strncmp(k.name, "apps.", 5) == 0) {
      const auto it = o.v_layer.find(k.name);
      m[k.name] = it == o.v_layer.end() ? 0.0 : it->second;
    }
  }
  m["bench.trace_overhead_frac"] = overhead;
  return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const MetricMap& m, const Metric* list, std::size_t n) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < n; ++i) {
    const double v = m.at(list[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                list[i].name, std::isfinite(v) ? v : 0.0, list[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  std::unique_ptr<Workload> wl = make(a.workload);
  if (!wl) return usage(("unknown workload '" + a.workload + "'").c_str());

  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) setup.push_back(wl->setup_once(a.seed));
  wl->prepare(a.seed);
  std::printf("offbench: workload %s, seed %llu, %g s, trace %d\n  inputs: %s\n"
              "  input digest: %016llx\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace, wl->describe().c_str(),
              static_cast<unsigned long long>(wl->input_digest()));

  std::uint64_t attempted = 0, failed = 0;
  bool same = true;
  Outcome first = wl->run();
  const std::uint64_t digest = v_digest(first);
  std::printf("  first run: %.3f s host\n", first.host_s);
  if (a.trace == 0) wl->extra(first);
  attempted += first.attempted;
  failed += first.failed;

  std::vector<double> host, traced_host;
  Outcome traced;
  const std::int64_t t0 = host_ns();
  const auto elapsed = [&] { return static_cast<double>(host_ns() - t0) * 1e-9; };
  while (host.size() < kMinReps || elapsed() < a.seconds) {
    Outcome o = wl->run();
    host.push_back(o.host_s);
    same = same && v_digest(o) == digest;
    attempted += o.attempted;
    failed += o.failed;
    if (a.trace == 1) {
      SpanLog::get().clear();
      SpanLog::get().enable(true);
      traced = wl->run();
      SpanLog::get().enable(false);
      traced_host.push_back(traced.host_s);
      same = same && v_digest(traced) == digest;
      attempted += traced.attempted;
      failed += traced.failed;
    }
  }

  const double host_s = median(host);
  std::printf("  host s per run:");
  for (double h : host) std::printf(" %.3f", h);
  std::printf("\n");
  std::printf("  runs: %zu untraced%s, virtual results %s across runs%s\n", host.size(),
              a.trace == 1 ? (", " + std::to_string(traced_host.size()) + " traced").c_str()
                           : "",
              same ? "bit-identical" : "DIFFERENT",
              a.trace == 1 ? " (traced and untraced)" : "");
  std::printf("  digest: %016llx\n", static_cast<unsigned long long>(digest));
  std::printf("  fail_frac = %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  MetricMap m = first.v;
  m["setup_s"] = median(setup);
  m["host_s"] = host_s;
  m["peak_rss_mb"] = peak_rss_mib();
  bool correct = same && failed == 0 && attempted > 0;
  if (a.trace == 0) {
    for (const Metric& k : kEndToEnd) {
      const auto it = m.find(k.name);
      if (it == m.end() || !std::isfinite(it->second) || it->second <= 0) {
        std::printf("  metric %s missing or not positive\n", k.name);
        correct = false;
        m[k.name] = it == m.end() ? 0.0 : it->second;
        continue;
      }
      const auto s = first.samples.find(k.name);
      std::printf("  %-24s %14.6g %-8s [%s]%s\n", k.name, it->second, k.unit, k.clock,
                  s == first.samples.end()
                      ? ""
                      : ("  " + std::to_string(s->second) + " samples").c_str());
    }
    print_json(correct, attempted, failed, m, kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  const double overhead = median(traced_host) / host_s - 1.0;
  MetricMap lm = layer_metrics(traced, host_s, overhead);
  for (const Metric& k : kPerLayer) {
    std::printf("  %-32s %14.6g %-8s [%s]\n", k.name, lm.at(k.name), k.unit, k.clock);
  }
  std::printf("  spans: %zu recorded in the last traced run\n",
              SpanLog::get().spans().size());
  if (!a.spans.empty()) SpanLog::get().write(a.spans);
  print_json(correct, attempted, failed, lm, kPerLayer, std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace offbench

int main(int argc, char** argv) {
  using offbench::usage;
  // Every MPIOFF_* variable retunes some layer (proxy, collectives, faults,
  // sanitizer, serve shape, tracing): refuse to measure under any of them.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MPIOFF_", 7) == 0) {
      const std::string var(*e, std::strcspn(*e, "="));
      std::fprintf(stderr, "offbench: %s is set; unset it to measure the pinned "
                           "configuration\n", var.c_str());
      return 3;
    }
  }
  offbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    return usage("--workload, --seconds > 0 and --trace 0|1 are required");
  }
  try {
    return offbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "offbench: %s\n", e.what());
    return 1;
  }
}
