#include "machine/fault.hpp"

#include <cstdlib>
#include <stdexcept>

#include "sim/rng.hpp"
#include "util/hash.hpp"
#include "util/spec_parser.hpp"

namespace machine {

namespace {

constexpr const char* kEnv = "MPIOFF_FAULTS";

constexpr const char* kValidKeys =
    "drop, dup, corrupt, delay, reorder, stall, rto, seed";

double parse_prob(const std::string& v, const std::string& key) {
  return util::SpecParser::parse_prob(kEnv, v, key);
}

sim::Time parse_duration(const std::string& v, const std::string& key) {
  return util::SpecParser::parse_duration(kEnv, v, key);
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& spec) {
  FaultSpec f;
  f.on = true;
  util::SpecParser grammar(kEnv, "=", kValidKeys);
  grammar.key("drop")
      .key("dup")
      .key("corrupt")
      .key("delay")
      .key("reorder")
      .key("stall")
      .key("rto")
      .key("seed");
  for (const util::SpecItem& it : grammar.parse(spec)) {
    const std::string& key = it.key;
    std::string val = it.value;
    // "prob:duration" forms split the optional duration off first.
    std::string dur;
    if (const std::size_t colon = val.find(':'); colon != std::string::npos) {
      dur = val.substr(colon + 1);
      val = val.substr(0, colon);
    }
    if (key == "drop") {
      f.drop = parse_prob(val, key);
    } else if (key == "dup") {
      f.dup = parse_prob(val, key);
    } else if (key == "corrupt") {
      f.corrupt = parse_prob(val, key);
    } else if (key == "delay") {
      f.delay = parse_prob(val, key);
      if (!dur.empty()) f.delay_max = parse_duration(dur, key);
    } else if (key == "reorder") {
      f.reorder = parse_prob(val, key);
    } else if (key == "stall") {
      f.stall = parse_prob(val, key);
      if (!dur.empty()) f.stall_window = parse_duration(dur, key);
    } else if (key == "rto") {
      f.rto_base = parse_duration(val, key);
    } else if (key == "seed") {
      char* end = nullptr;
      f.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str()) {
        throw std::invalid_argument("MPIOFF_FAULTS: bad seed: " + val);
      }
    }
    if (!dur.empty() && key != "delay" && key != "stall") {
      throw std::invalid_argument("MPIOFF_FAULTS: '" + key +
                                  "' does not take a duration");
    }
  }
  return f;
}

FaultPlan::FaultPlan(const FaultSpec& spec, int nranks, sim::Time net_latency)
    : spec_(spec),
      nranks_(nranks),
      net_latency_(net_latency),
      pair_ctr_(static_cast<std::size_t>(nranks) *
                static_cast<std::size_t>(nranks)) {}

FaultDecision FaultPlan::decide(int src, int dst) {
  const std::size_t pair = static_cast<std::size_t>(src) *
                               static_cast<std::size_t>(nranks_) +
                           static_cast<std::size_t>(dst);
  const std::uint64_t ctr = pair_ctr_[pair]++;
  // Fresh per-frame stream: variable draw counts below cannot leak into any
  // other frame's decision, and global send order is irrelevant.
  sim::Rng rng(util::splitmix64(
      util::splitmix64(spec_.seed ^ (pair * 0x7fb5d329728ea185ull)) ^ ctr));
  ++stats_.frames;
  FaultDecision d;
  if (spec_.drop > 0 && rng.next_double() < spec_.drop) {
    d.drop = true;
    ++stats_.dropped;
  }
  if (spec_.dup > 0 && rng.next_double() < spec_.dup) {
    d.dup = true;
    d.dup_delay = sim::Time(1 + static_cast<std::int64_t>(
                                    rng.uniform(0, static_cast<double>(
                                                       net_latency_.ns()))));
    ++stats_.duplicated;
  }
  if (spec_.corrupt > 0 && rng.next_double() < spec_.corrupt) {
    d.corrupt = true;
    d.corrupt_bit = rng.next_u64();
    ++stats_.corrupted;
  }
  if (spec_.delay > 0 && rng.next_double() < spec_.delay) {
    d.delay += sim::Time(static_cast<std::int64_t>(
        rng.uniform(0, static_cast<double>(spec_.delay_max.ns()))));
    ++stats_.delayed;
  }
  if (spec_.reorder > 0 && rng.next_double() < spec_.reorder) {
    // Enough jitter to overtake back-to-back frames on this profile.
    d.delay += sim::Time(static_cast<std::int64_t>(
        rng.uniform(static_cast<double>(net_latency_.ns()),
                    4.0 * static_cast<double>(net_latency_.ns()))));
    ++stats_.reordered;
  }
  if (spec_.stall > 0 && rng.next_double() < spec_.stall) {
    if (rng.next_double() < 0.5) {
      d.egress_stall = spec_.stall_window;
      ++stats_.egress_stalls;
    } else {
      d.ingress_stall = spec_.stall_window;
      ++stats_.ingress_stalls;
    }
    stats_.stall_time += spec_.stall_window;
  }
  return d;
}

}  // namespace machine
