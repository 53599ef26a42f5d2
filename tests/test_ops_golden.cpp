// Behaviour contract for every Proxy operation (label `golden`).
//
// One 4-rank program runs on every approach x engine count {1, 4}, with the
// proxy options, collective tuning and sanitizer pinned so no MPIOFF_*
// variable can move them. It calls each op the Proxy interface offers:
//   p2p     — eager and rendezvous isend/irecv, then send/recv, on a ring;
//   colls   — all six i-collectives (non-zero roots) completed through
//             waitall and waitany, then their six blocking forms;
//   rma     — win_create, put, fence, get, fence, win_free;
//   batch   — a post_batch group of eager and rendezvous sends and receives,
//             completed through testall;
//   cont    — attach_continuation on a one-shot receive, run to completion
//             through cont_wait.
// Each row records the final virtual time, a digest of every rank's payloads
// and Statuses (each rank folds into its own accumulator; the accumulators
// fold in rank order afterwards, so no digest depends on the fiber
// schedule), a digest of the RankStats fields summed over ranks, and the
// number of events the engine fired. The simulator is deterministic, so the
// values must reproduce bit for bit: a change that is meant to move them
// updates the table below in the same diff and says why. On a mismatch the
// test prints the row to paste.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"

using core::Approach;
using core::BatchOp;
using core::PReq;
using smpi::Datatype;

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr int kRanks = 4;
// Either side of the xeon_fdr eager threshold (128 KiB).
constexpr std::size_t kSizes[2] = {2048, 136 * 1024};

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t fold_bytes(std::uint64_t h, const std::vector<T>& v) {
  const auto* b = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fold_status(std::uint64_t h, const smpi::Status& st) {
  h = fold(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(st.source)));
  h = fold(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(st.tag)));
  return fold(h, st.bytes);
}

std::vector<char> filled(std::size_t bytes, int salt) {
  std::vector<char> b(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    b[i] = static_cast<char>((i * 131 + static_cast<std::size_t>(salt) * 17) &
                             0xff);
  }
  return b;
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

smpi::ClusterConfig pinned_config(Approach a) {
  smpi::ClusterConfig c;
  c.nranks = kRanks;
  c.profile = machine::xeon_fdr();
  c.thread_level = core::required_thread_level(a);
  c.deadline = sim::Time::from_sec(60);
  c.coll_spec = "seg:65536,chains:8";
  c.san_spec = "0";
  return c;
}

void run_p2p(core::Proxy& p, int r, std::uint64_t& h) {
  const int right = (r + 1) % kRanks, left = (r + kRanks - 1) % kRanks;
  for (std::size_t bytes : kSizes) {
    const int tag = static_cast<int>(bytes % 1000);
    const std::vector<char> sb = filled(bytes, r * 7 + tag);
    std::vector<char> rb(bytes, 0);
    smpi::Status st;
    PReq rq = p.irecv(rb.data(), bytes, Datatype::kByte, left, tag);
    PReq sq = p.isend(sb.data(), bytes, Datatype::kByte, right, tag);
    p.wait(rq, &st);
    p.wait(sq);
    h = fold_bytes(fold_status(h, st), rb);
    // Blocking ring shift: even ranks send first, so rendezvous cannot
    // deadlock.
    rb.assign(bytes, 0);
    if (r % 2 == 0) {
      p.send(sb.data(), bytes, Datatype::kByte, right, tag + 1);
      p.recv(rb.data(), bytes, Datatype::kByte, left, tag + 1,
             smpi::kCommWorld, &st);
    } else {
      p.recv(rb.data(), bytes, Datatype::kByte, left, tag + 1,
             smpi::kCommWorld, &st);
      p.send(sb.data(), bytes, Datatype::kByte, right, tag + 1);
    }
    h = fold_bytes(fold_status(h, st), rb);
  }
}

void run_colls(core::Proxy& p, int r, std::uint64_t& h) {
  constexpr std::size_t kN = 96;  // ints per block
  std::vector<int> mine(kN), bc(kN), red(kN), ared(kN), a2a_in(kN * kRanks),
      a2a(kN * kRanks), ag(kN * kRanks);
  for (std::size_t i = 0; i < kN; ++i) {
    mine[i] = static_cast<int>(i) * (r + 3) - r;
    bc[i] = r == 1 ? static_cast<int>(i * 5 + 1) : 0;
  }
  for (std::size_t i = 0; i < a2a_in.size(); ++i) {
    a2a_in[i] = static_cast<int>(i) + 1000 * r;
  }
  // Nonblocking: half completed through waitall, half through waitany.
  std::vector<PReq> first = {
      p.ibcast(bc.data(), kN, Datatype::kInt, 1),
      p.ireduce(mine.data(), red.data(), kN, Datatype::kInt, smpi::Op::kSum, 2),
      p.iallreduce(mine.data(), ared.data(), kN, Datatype::kInt,
                   smpi::Op::kMax)};
  p.waitall(first);
  std::vector<PReq> second = {
      p.ialltoall(a2a_in.data(), a2a.data(), kN, Datatype::kInt),
      p.iallgather(mine.data(), ag.data(), kN, Datatype::kInt),
      p.ibarrier()};
  int idx;
  while ((idx = p.waitany(second)) >= 0) {
    h = fold(h, static_cast<std::uint64_t>(idx));
  }
  for (const auto* v : {&bc, &red, &ared, &a2a, &ag}) h = fold_bytes(h, *v);
  // The blocking forms, on fresh outputs and different roots.
  std::fill(red.begin(), red.end(), 0);
  if (r != 3) std::fill(bc.begin(), bc.end(), 0);
  p.barrier();
  p.bcast(bc.data(), kN, Datatype::kInt, 3);
  p.reduce(mine.data(), red.data(), kN, Datatype::kInt, smpi::Op::kMin, 1);
  p.allreduce(mine.data(), ared.data(), kN, Datatype::kInt, smpi::Op::kSum);
  p.alltoall(a2a_in.data(), a2a.data(), kN, Datatype::kInt);
  p.allgather(bc.data(), ag.data(), kN, Datatype::kInt);
  for (const auto* v : {&bc, &red, &ared, &a2a, &ag}) h = fold_bytes(h, *v);
}

void run_rma(core::Proxy& p, int r, std::uint64_t& h) {
  std::vector<long> window(kRanks * 4, -1);
  const smpi::Win w = p.win_create(window.data(), window.size() * sizeof(long));
  // Origin buffers stay untouched until the fence completes the puts.
  std::vector<long> origin(kRanks);
  for (int t = 0; t < kRanks; ++t) {
    origin[static_cast<std::size_t>(t)] = 100L * r + t;
    p.put(&origin[static_cast<std::size_t>(t)], sizeof(long), t,
          static_cast<std::size_t>(r) * 4 * sizeof(long), w);
  }
  p.fence(w);
  std::vector<long> got(4, 0);
  p.get(got.data(), got.size() * sizeof(long), (r + 1) % kRanks,
        static_cast<std::size_t>(r) * 4 * sizeof(long), w);
  p.fence(w);
  h = fold_bytes(fold_bytes(h, window), got);
  p.win_free(w);
}

void run_batch(core::Proxy& p, int r, std::uint64_t& h) {
  const int right = (r + 1) % kRanks, left = (r + kRanks - 1) % kRanks;
  std::vector<std::vector<char>> sb, rb;
  std::vector<BatchOp> ops;
  sb.reserve(2);
  rb.reserve(4);
  for (std::size_t k = 0; k < 2; ++k) {
    const int tag = 500 + static_cast<int>(k);
    rb.emplace_back(kSizes[k], 0);
    rb.emplace_back(kSizes[k], 0);
    sb.push_back(filled(kSizes[k], r * 13 + tag));
    ops.push_back(BatchOp::irecv(rb[2 * k].data(), kSizes[k], Datatype::kByte,
                                 left, tag));
    ops.push_back(BatchOp::irecv(rb[2 * k + 1].data(), kSizes[k],
                                 Datatype::kByte, right, tag));
    ops.push_back(BatchOp::isend(sb[k].data(), kSizes[k], Datatype::kByte,
                                 right, tag));
    ops.push_back(BatchOp::isend(sb[k].data(), kSizes[k], Datatype::kByte,
                                 left, tag));
  }
  std::vector<PReq> reqs(ops.size());
  p.post_batch(ops, reqs);
  while (!p.testall(reqs)) p.progress_hint();
  for (const auto& b : rb) h = fold_bytes(h, b);
}

void run_cont(core::Proxy& p, int r, std::uint64_t& h) {
  const int right = (r + 1) % kRanks, left = (r + kRanks - 1) % kRanks;
  const std::vector<char> sb = filled(3000, r + 40);
  std::vector<char> rb(3000, 0);
  std::uint64_t seen = kFnvBasis;
  bool fired = false;
  PReq rq = p.irecv(rb.data(), rb.size(), Datatype::kByte, left, 600);
  p.attach_continuation(rq, [&](const smpi::Status& st) {
    seen = fold_status(seen, st);
    fired = true;
  });
  PReq sq = p.isend(sb.data(), sb.size(), Datatype::kByte, right, 600);
  p.wait(sq);
  p.cont_wait([&] { return fired; });
  h = fold_bytes(fold(h, seen), rb);
}

struct Outcome {
  std::int64_t t_ns = 0;
  std::uint64_t payload = kFnvBasis;
  std::uint64_t stats = kFnvBasis;
  std::uint64_t events = 0;
};

Outcome run_ops(Approach a, std::size_t proxies) {
  std::vector<std::uint64_t> digest(kRanks, kFnvBasis);
  smpi::Cluster cluster(pinned_config(a));
  const sim::Time end = cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc, pinned_options(proxies));
    p->start_engine();
    const int r = rc.rank();
    std::uint64_t& h = digest[static_cast<std::size_t>(r)];
    run_p2p(*p, r, h);
    run_colls(*p, r, h);
    run_rma(*p, r, h);
    run_batch(*p, r, h);
    run_cont(*p, r, h);
    p->barrier();
    p->stop();
  });
  Outcome o;
  o.t_ns = end.ns();
  for (std::uint64_t v : digest) o.payload = fold(o.payload, v);
  std::uint64_t sum[6] = {};
  for (int r = 0; r < kRanks; ++r) {
    const smpi::RankStats& s = cluster.rank(r).stats();
    sum[0] += s.calls;
    sum[1] += s.progress_passes;
    sum[2] += s.eager_sends;
    sum[3] += s.rndv_sends;
    sum[4] += s.unexpected_hits;
    sum[5] += static_cast<std::uint64_t>(s.time_in_mpi.ns());
  }
  for (std::uint64_t v : sum) o.stats = fold(o.stats, v);
  o.events = cluster.engine().stats().events_fired;
  return o;
}

struct Row {
  Approach approach;
  std::size_t proxies;
  std::int64_t t_ns;
  std::uint64_t payload;
  std::uint64_t stats;
  std::uint64_t events;
};

// The contract; a row changes only in a diff that says why (file header).
const Row kGolden[] = {
    {Approach::kBaseline, 1, 238459, 0x11bc5e17409adc39ull, 0x6150aedb6d9636d4ull, 4170},
    {Approach::kBaseline, 4, 238459, 0x11bc5e17409adc39ull, 0x6150aedb6d9636d4ull, 4170},
    {Approach::kIprobe, 1, 238619, 0x11bc5e17409adc39ull, 0x2ba2855bb6f1b4f6ull, 4176},
    {Approach::kIprobe, 4, 238619, 0x11bc5e17409adc39ull, 0x2ba2855bb6f1b4f6ull, 4176},
    {Approach::kCommSelf, 1, 361318, 0x11bc5e17409adc39ull, 0x3cb26d57d172166bull, 3807},
    {Approach::kCommSelf, 4, 361318, 0x11bc5e17409adc39ull, 0x3cb26d57d172166bull, 3807},
    {Approach::kOffload, 1, 250488, 0x11bc5e17409adc39ull, 0x24f8eb264ecd384ull, 16162},
    {Approach::kOffload, 4, 249657, 0x11bc5e17409adc39ull, 0x3b7b570d18a2373aull, 29880},
};

const char* enum_name(Approach a) {
  switch (a) {
    case Approach::kBaseline:
      return "Approach::kBaseline";
    case Approach::kIprobe:
      return "Approach::kIprobe";
    case Approach::kCommSelf:
      return "Approach::kCommSelf";
    case Approach::kOffload:
      return "Approach::kOffload";
  }
  return "?";
}

struct Param {
  Approach approach;
  std::size_t proxies;
};
// Keeps the discovered test names free of struct padding bytes.
void PrintTo(const Param& p, std::ostream* os) {
  *os << core::approach_name(p.approach) << "/proxies:" << p.proxies;
}

class OpsGolden : public ::testing::TestWithParam<Param> {};

TEST_P(OpsGolden, MatchesRecordedContract) {
  const auto [a, proxies] = GetParam();
  const Outcome got = run_ops(a, proxies);
  const Row* want = nullptr;
  for (const Row& row : kGolden) {
    if (row.approach == a && row.proxies == proxies) want = &row;
  }
  char line[200];
  std::snprintf(line, sizeof line, "{%s, %zu, %lld, 0x%llxull, 0x%llxull, %llu},",
                enum_name(a), proxies, static_cast<long long>(got.t_ns),
                static_cast<unsigned long long>(got.payload),
                static_cast<unsigned long long>(got.stats),
                static_cast<unsigned long long>(got.events));
  ASSERT_NE(want, nullptr) << "no recorded row; measured:\n    " << line;
  EXPECT_TRUE(got.t_ns == want->t_ns && got.payload == want->payload &&
              got.stats == want->stats && got.events == want->events)
      << "contract moved; measured:\n    " << line;
}

INSTANTIATE_TEST_SUITE_P(
    Approaches, OpsGolden,
    ::testing::Values(Param{Approach::kBaseline, 1},
                      Param{Approach::kBaseline, 4},
                      Param{Approach::kIprobe, 1}, Param{Approach::kIprobe, 4},
                      Param{Approach::kCommSelf, 1},
                      Param{Approach::kCommSelf, 4},
                      Param{Approach::kOffload, 1},
                      Param{Approach::kOffload, 4}),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = core::approach_name(info.param.approach);
      std::erase(name, '-');  // test names allow [A-Za-z0-9_] only
      return name + "_proxies" + std::to_string(info.param.proxies);
    });

}  // namespace
