// Behaviour contract for the offload submission front end (label `golden`).
//
// Complements the ablation-deck golden (tests/golden/ablation_offload.txt)
// on the submit paths that deck never reaches, on engine counts {1, 4} with
// the proxy options, collective tuning and sanitizer pinned so no MPIOFF_*
// variable can move them:
//   overflow — more submitting fibers than lane rows, posting both singly
//              and through post_batch, through lanes and rings small enough
//              to stall, completed through waitall/waitany/testall/wait;
//   mixed    — 4 ranks posting post_batch groups whose commands hash to
//              different engines (and a late wildcard receive), through the
//              lanes;
//   shared   — the same traffic with lanes disabled (shared rings only).
// Each row records the final virtual time, a digest of every received
// payload and Status, and a digest of every OffloadStats and LaneStats field
// of every rank. The simulator is deterministic, so the values must
// reproduce bit for bit: a change that is meant to move them updates the
// table below in the same diff and says why. On a mismatch the test prints
// the row to paste.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "sim/sync.hpp"

using core::BatchOp;
using core::LaneStats;
using core::OffloadProxy;
using core::OffloadStats;
using core::PReq;
using smpi::Datatype;

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fold_bytes(std::uint64_t h, const std::vector<char>& b) {
  for (char c : b) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fold_status(std::uint64_t h, const smpi::Status& st) {
  h = fold(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(st.source)));
  h = fold(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(st.tag)));
  return fold(h, st.bytes);
}

std::uint64_t fold_stats(std::uint64_t h, const OffloadStats& s) {
  for (std::uint64_t v :
       {s.commands, s.testany_calls, s.completions, s.max_inflight,
        s.ring_full_stalls, s.pool_full_stalls, s.watchdog_flags,
        s.lane_submits, s.shared_submits, s.overflow_submits, s.batches,
        s.batched_commands, s.lane_full_stalls, s.steal_rounds,
        s.steal_commands, s.engine_spins, s.engine_yields, s.engine_sleeps,
        s.cont_armed, s.cont_inline, s.cont_executed, s.cont_deferred,
        s.cont_posts}) {
    h = fold(h, v);
  }
  return h;
}

std::uint64_t fold_lane(std::uint64_t h, const LaneStats& s) {
  for (std::uint64_t v : {s.submits, s.batches, s.batched_commands,
                          s.full_stalls, s.max_occupancy, s.drained}) {
    h = fold(h, v);
  }
  return h;
}

void fill(std::vector<char>& b, int salt) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<char>((i * 131 + static_cast<std::size_t>(salt) * 17) &
                             0xff);
  }
}

core::ProxyOptions pinned_options(std::size_t proxies) {
  core::ProxyOptions o;
  o.ring_capacity = 1024;
  o.pool_capacity = 4096;
  o.lane_count = 8;
  o.lane_capacity = 64;
  o.lane_drain_bound = 16;
  o.batch_flush = 8;
  o.watchdog_budget = sim::Time::from_ms(500);
  o.cont_run_bound = 16;
  o.proxy_count = proxies;
  o.steal_bound = 8;
  return o;
}

smpi::ClusterConfig pinned_config(int nranks) {
  smpi::ClusterConfig c;
  c.nranks = nranks;
  c.profile = machine::xeon_fdr();
  c.thread_level = core::required_thread_level(core::Approach::kOffload);
  c.deadline = sim::Time::from_sec(60);
  c.coll_spec = "seg:65536,chains:8";
  c.san_spec = "0";
  return c;
}

struct Outcome {
  std::int64_t t_ns = 0;
  std::uint64_t payload = kFnvBasis;
  std::uint64_t stats = kFnvBasis;
};

/// Per-rank (and per-fiber) accumulators fold into the row after the run,
/// in index order, so no digest depends on fiber interleaving.
Outcome collect(sim::Time end, const std::vector<std::uint64_t>& payload,
                const std::vector<std::uint64_t>& stats) {
  Outcome o;
  o.t_ns = end.ns();
  for (std::uint64_t v : payload) o.payload = fold(o.payload, v);
  for (std::uint64_t v : stats) o.stats = fold(o.stats, v);
  return o;
}

std::uint64_t channel_digest(OffloadProxy& p) {
  std::uint64_t h = fold_stats(kFnvBasis, p.channel().stats());
  for (std::size_t i = 0; i < p.channel().lane_count(); ++i) {
    h = fold_lane(h, p.channel().lane_stats(i));
  }
  return h;
}

// Every submitting fiber completes its round through a different surface,
// so the proxy's slot-release paths all run under the contract.
void complete_round(OffloadProxy& p, std::vector<PReq>& reqs, int round) {
  switch (round % 4) {
    case 0:
      p.waitall(reqs);
      break;
    case 1:
      while (p.waitany(reqs) >= 0) {
      }
      break;
    case 2:
      while (!p.testall(reqs)) p.progress_hint();
      break;
    default:
      for (PReq& r : reqs) p.wait(r);
  }
}

Outcome run_overflow(std::size_t proxies) {
  constexpr int kFibers = 5;  // vs 2 lane rows: three fibers overflow
  constexpr int kRounds = 4;
  constexpr int kMsgs = 6;
  const std::size_t sizes[kMsgs] = {64, 512, 2048, 8192, 40 * 1024,
                                    136 * 1024};
  std::vector<std::uint64_t> payload(2 * kFibers, kFnvBasis);
  std::vector<std::uint64_t> stats(2, kFnvBasis);
  smpi::Cluster cluster(pinned_config(2));
  const sim::Time end = cluster.run([&](smpi::RankCtx& rc) {
    core::ProxyOptions o = pinned_options(proxies);
    o.lane_count = 2;
    o.lane_capacity = 4;
    o.ring_capacity = 8;
    o.batch_flush = 4;
    OffloadProxy p(rc, o);
    p.start_engine();
    const int r = rc.rank(), peer = 1 - r;
    sim::Barrier finished(kFibers + 1);
    for (int f = 0; f < kFibers; ++f) {
      rc.cluster().spawn_on(r, "submit" + std::to_string(f), [&, f]() {
        std::vector<std::vector<char>> sb(kMsgs), rb(kMsgs);
        for (int round = 0; round < kRounds; ++round) {
          std::vector<BatchOp> ops;
          for (int m = 0; m < kMsgs; ++m) {
            const int tag = f * 1000 + round * 10 + m;
            rb[m].assign(sizes[m], 0);
            sb[m].assign(sizes[m], 0);
            fill(sb[m], r * 31 + tag);
            ops.push_back(BatchOp::irecv(rb[m].data(), sizes[m],
                                         Datatype::kByte, peer, tag));
          }
          for (int m = 0; m < kMsgs; ++m) {
            ops.push_back(BatchOp::isend(sb[m].data(), sizes[m],
                                         Datatype::kByte, peer,
                                         f * 1000 + round * 10 + m));
          }
          std::vector<PReq> reqs(ops.size());
          if ((f + round) % 2 == 0) {
            p.post_batch(ops, reqs);
          } else {
            for (std::size_t i = 0; i < ops.size(); ++i) {
              const BatchOp& b = ops[i];
              reqs[i] = b.op == core::CmdOp::kIrecv
                            ? p.irecv(b.rbuf, b.count, b.dtype, b.peer, b.tag)
                            : p.isend(b.sbuf, b.count, b.dtype, b.peer, b.tag);
            }
          }
          complete_round(p, reqs, round + f);
          std::uint64_t& acc = payload[static_cast<std::size_t>(r * kFibers + f)];
          for (const auto& b : rb) acc = fold_bytes(acc, b);
        }
        finished.arrive_and_wait();
      });
    }
    finished.arrive_and_wait();
    p.barrier();
    p.stop();
    stats[static_cast<std::size_t>(r)] = channel_digest(p);
  });
  return collect(end, payload, stats);
}

Outcome run_mixed(std::size_t proxies, std::size_t lanes) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 3;
  std::vector<std::uint64_t> payload(kRanks, kFnvBasis);
  std::vector<std::uint64_t> stats(kRanks, kFnvBasis);
  smpi::Cluster cluster(pinned_config(kRanks));
  const sim::Time end = cluster.run([&](smpi::RankCtx& rc) {
    core::ProxyOptions o = pinned_options(proxies);
    o.lane_count = lanes;
    OffloadProxy p(rc, o);
    p.start_engine();
    const int r = rc.rank();
    for (int round = 0; round < kRounds; ++round) {
      // Receives from and sends to every other rank, interleaved in one
      // group: consecutive commands hash to different engines.
      std::vector<std::vector<char>> sb, rb;
      std::vector<BatchOp> ops;
      sb.reserve(2 * (kRanks - 1));
      rb.reserve(2 * (kRanks - 1));
      for (int d = 1; d < kRanks; ++d) {
        const int from = (r + kRanks - d) % kRanks, to = (r + d) % kRanks;
        for (int k = 0; k < 2; ++k) {
          const std::size_t bytes = 256u << (2 * (d + k + round) % 9);
          const int tag = round * 100 + d * 10 + k;
          rb.emplace_back(bytes, 0);
          // The last round posts its first receive as a wildcard: the
          // communicator then pins to hash(comm) routing from there on.
          const int src = round == kRounds - 1 && d == 1 && k == 0
                              ? smpi::kAnySource
                              : from;
          ops.push_back(BatchOp::irecv(rb.back().data(), bytes,
                                       Datatype::kByte, src, tag));
          sb.emplace_back(bytes, 0);
          fill(sb.back(), r * 7 + tag);
          ops.push_back(BatchOp::isend(sb.back().data(), bytes,
                                       Datatype::kByte, to, tag));
        }
      }
      std::vector<PReq> reqs(ops.size());
      p.post_batch(ops, reqs);
      if (round % 2 == 0) {
        p.waitall(reqs);
      } else {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          smpi::Status st;
          p.wait(reqs[i], &st);
          if (ops[i].op == core::CmdOp::kIrecv) {
            payload[static_cast<std::size_t>(r)] =
                fold_status(payload[static_cast<std::size_t>(r)], st);
          }
        }
      }
      for (const auto& b : rb) {
        payload[static_cast<std::size_t>(r)] =
            fold_bytes(payload[static_cast<std::size_t>(r)], b);
      }
      p.barrier();
    }
    p.stop();
    stats[static_cast<std::size_t>(r)] = channel_digest(p);
  });
  return collect(end, payload, stats);
}

struct Row {
  std::size_t proxies;
  char scenario;  ///< 'o'verflow, 'm'ixed, 's'hared
  std::int64_t t_ns;
  std::uint64_t payload;
  std::uint64_t stats;
};

// The contract; a row changes only in a diff that says why (file header).
const Row kGolden[] = {
    {1, 'o', 664734, 0x21cff57432644048ull, 0x816f148afe461c5bull},
    {1, 'm', 150902, 0xd9f882f06b1b7918ull, 0xf6956a03300dcd23ull},
    {1, 's', 151502, 0xd9f882f06b1b7918ull, 0xc59c78d7010792abull},
    {4, 'o', 686960, 0x21cff57432644048ull, 0xa957bb2a32be9b46ull},
    {4, 'm', 156348, 0xd9f882f06b1b7918ull, 0x25ff8e86214a8547ull},
    {4, 's', 158282, 0xd9f882f06b1b7918ull, 0x60b199d8ad2dac47ull},
};

class SubmitGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SubmitGolden, MatchesRecordedContract) {
  const std::size_t proxies = GetParam();
  for (char scenario : {'o', 'm', 's'}) {
    const Outcome got = scenario == 'o'   ? run_overflow(proxies)
                        : scenario == 'm' ? run_mixed(proxies, 8)
                                          : run_mixed(proxies, 0);
    const Row* want = nullptr;
    for (const Row& row : kGolden) {
      if (row.proxies == proxies && row.scenario == scenario) want = &row;
    }
    char line[160];
    std::snprintf(line, sizeof line, "{%zu, '%c', %lld, 0x%llxull, 0x%llxull},",
                  proxies, scenario, static_cast<long long>(got.t_ns),
                  static_cast<unsigned long long>(got.payload),
                  static_cast<unsigned long long>(got.stats));
    if (want == nullptr) {
      ADD_FAILURE() << "no recorded row; measured:\n    " << line;
      continue;
    }
    EXPECT_TRUE(got.t_ns == want->t_ns && got.payload == want->payload &&
                got.stats == want->stats)
        << "contract moved; measured:\n    " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SubmitGolden, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "proxies" + std::to_string(info.param);
                         });

}  // namespace
