// Behaviour contract for persistent & partitioned requests (label `golden`).
//
// Three scenarios run on every approach x engine count {1, 4}, with the
// proxy options, collective tuning and sanitizer pinned so no MPIOFF_*
// variable can move them:
//   ring   — 4-rank ring of partitioned faces (one eager, one rendezvous),
//            every partition pready()d by its own compute fiber;
//   window — plain persistent send/recv window of mixed sizes, completed
//            through wait and test;
//   chain  — a continuation that restarts its own generation, on both the
//            send and the receive side.
// Each records the final virtual time, a digest of every received payload
// and a digest of every Status the API returned. The simulator is
// deterministic, so the recorded values must reproduce bit for bit: a change
// that is meant to move them updates the table below in the same diff and
// says why. On a mismatch the test prints the row to paste.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "mpi/continuation.hpp"
#include "sim/sync.hpp"

using core::Approach;
using core::PersistentReq;
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

void fill(std::vector<char>& b, std::size_t lo, std::size_t hi, int salt) {
  for (std::size_t i = lo; i < hi; ++i) {
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

smpi::ClusterConfig pinned_config(int nranks, Approach a) {
  smpi::ClusterConfig c;
  c.nranks = nranks;
  c.profile = machine::xeon_fdr();
  c.thread_level = core::required_thread_level(a);
  c.deadline = sim::Time::from_sec(60);
  c.coll_spec = "seg:65536,chains:8";
  c.san_spec = "0";
  return c;
}

struct Outcome {
  std::int64_t t_ns = 0;
  std::uint64_t payload = kFnvBasis;
  std::uint64_t status = kFnvBasis;
};

/// Ranks fold into the digests in rank order after the run (per-rank
/// accumulators), so the digest never depends on fiber interleaving.
Outcome collect(sim::Time end, const std::vector<std::uint64_t>& payload,
                const std::vector<std::uint64_t>& status) {
  Outcome o;
  o.t_ns = end.ns();
  for (std::uint64_t v : payload) o.payload = fold(o.payload, v);
  for (std::uint64_t v : status) o.status = fold(o.status, v);
  return o;
}

Outcome run_ring(Approach a, std::size_t proxies) {
  constexpr int kRanks = 4;
  constexpr int kParts = 4;
  constexpr int kGens = 3;
  // Face 0 is eager, face 1 rendezvous (partitions above 128 KiB).
  const std::size_t part_bytes[2] = {2048, 136 * 1024};
  std::vector<std::uint64_t> payload(kRanks, kFnvBasis);
  std::vector<std::uint64_t> status(kRanks, kFnvBasis);
  smpi::Cluster cluster(pinned_config(kRanks, a));
  const sim::Time end = cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc, pinned_options(proxies));
    p->start_engine();
    const int r = rc.rank();
    const int right = (r + 1) % kRanks, left = (r + kRanks - 1) % kRanks;
    std::vector<char> out[2], in[2];
    std::vector<PersistentReq> reqs;
    for (int f = 0; f < 2; ++f) {
      const std::size_t bytes = part_bytes[f] * kParts;
      out[f].assign(bytes, 0);
      in[f].assign(bytes, 0);
      reqs.push_back(p->psend_init(out[f].data(), bytes, Datatype::kByte,
                                   right, 10 + f, kParts));
      reqs.push_back(p->precv_init(in[f].data(), bytes, Datatype::kByte, left,
                                   10 + f, kParts));
    }
    sim::Barrier go(kParts + 1), filled(kParts + 1);
    int gen = 0;
    bool stop = false;
    for (int f = 0; f < kParts; ++f) {
      rc.cluster().spawn_on(r, "compute" + std::to_string(f), [&, f]() {
        for (;;) {
          go.arrive_and_wait();
          if (stop) return;
          smpi::compute(sim::Time::from_us(20 + 7 * ((r + 3 * f + gen) % 5)));
          for (int face = 0; face < 2; ++face) {
            const std::size_t pb = part_bytes[face];
            fill(out[face], pb * f, pb * (f + 1), r * 100 + gen * 10 + face);
            p->pready(reqs[static_cast<std::size_t>(2 * face)],
                      static_cast<std::uint32_t>(f));
          }
          filled.arrive_and_wait();
        }
      });
    }
    for (gen = 0; gen < kGens; ++gen) {
      p->startall(reqs);
      go.arrive_and_wait();
      filled.arrive_and_wait();
      for (PersistentReq& q : reqs) {
        smpi::Status st;
        p->wait(q, &st);
        status[r] = fold_status(status[r], st);
      }
      payload[r] = fold_bytes(fold_bytes(payload[r], in[0]), in[1]);
    }
    stop = true;
    go.arrive_and_wait();
    for (PersistentReq& q : reqs) p->request_free(q);
    p->barrier();
    p->stop();
  });
  return collect(end, payload, status);
}

Outcome run_window(Approach a, std::size_t proxies) {
  constexpr int kGens = 3;
  const std::size_t sizes[4] = {64, 1024, 16 * 1024, 160 * 1024};
  std::vector<std::uint64_t> payload(2, kFnvBasis), status(2, kFnvBasis);
  smpi::Cluster cluster(pinned_config(2, a));
  const sim::Time end = cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc, pinned_options(proxies));
    p->start_engine();
    const int r = rc.rank(), peer = 1 - r;
    std::vector<std::vector<char>> sb, rb;
    std::vector<PersistentReq> reqs;  // receives first, then sends
    for (int i = 0; i < 4; ++i) {
      rb.emplace_back(sizes[i], 0);
      reqs.push_back(p->recv_init(rb.back().data(), sizes[i], Datatype::kByte,
                                  peer, 20 + i));
    }
    for (int i = 0; i < 4; ++i) {
      sb.emplace_back(sizes[i], 0);
      reqs.push_back(p->send_init(sb.back().data(), sizes[i], Datatype::kByte,
                                  peer, 20 + i));
    }
    for (int g = 0; g < kGens; ++g) {
      for (int i = 0; i < 4; ++i) fill(sb[i], 0, sizes[i], r * 7 + g * 3 + i);
      p->startall(reqs);
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        smpi::Status st;
        if (i % 2 == 0) {
          p->wait(reqs[i], &st);
        } else {
          while (!p->test(reqs[i], &st)) p->progress_hint();
        }
        status[r] = fold_status(status[r], st);
      }
      for (const auto& b : rb) payload[r] = fold_bytes(payload[r], b);
    }
    for (PersistentReq& q : reqs) p->request_free(q);
    p->barrier();
    p->stop();
  });
  return collect(end, payload, status);
}

Outcome run_chain(Approach a, std::size_t proxies) {
  constexpr int kGens = 5;
  std::vector<std::uint64_t> payload(2, kFnvBasis), status(2, kFnvBasis);
  smpi::Cluster cluster(pinned_config(2, a));
  const sim::Time end = cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc, pinned_options(proxies));
    p->start_engine();
    const int r = rc.rank();
    std::vector<char> buf(3000, 0);
    PersistentReq q =
        r == 0 ? p->send_init(buf.data(), buf.size(), Datatype::kByte, 1, 30)
               : p->recv_init(buf.data(), buf.size(), Datatype::kByte, 0, 30);
    int fired = 0;
    cont::Event done;
    // The callback sees the request inactive again and restarts it.
    core::ContFn next = [&](const smpi::Status& st) {
      status[r] = fold_status(status[r], st);
      if (r == 1) payload[r] = fold_bytes(payload[r], buf);
      if (++fired == kGens) {
        done.set();
        return;
      }
      if (r == 0) fill(buf, 0, buf.size(), fired);
      p->start(q);
      cont::generation(*p, q).then(next);
    };
    if (r == 0) fill(buf, 0, buf.size(), 0);
    p->start(q);
    cont::generation(*p, q).then(next);
    done.wait(*p);
    p->request_free(q);
    p->barrier();
    p->stop();
  });
  return collect(end, payload, status);
}

struct Row {
  Approach approach;
  std::size_t proxies;
  char scenario;  ///< 'r'ing, 'w'indow, 'c'hain
  std::int64_t t_ns;
  std::uint64_t payload;
  std::uint64_t status;
};

// The contract; a row changes only in a diff that says why (file header).
const Row kGolden[] = {
    {Approach::kBaseline, 1, 'r', 595058, 0x6413ac8a52b21e5ull, 0x27e58567c11d5db8ull},
    {Approach::kBaseline, 1, 'w', 123824, 0x5716f98bb642555cull, 0x2d0c109e7296833aull},
    {Approach::kBaseline, 1, 'c', 8605, 0x4ba70ccede621a20ull, 0xbb768596e743b300ull},
    {Approach::kBaseline, 4, 'r', 595058, 0x6413ac8a52b21e5ull, 0x27e58567c11d5db8ull},
    {Approach::kBaseline, 4, 'w', 123824, 0x5716f98bb642555cull, 0x2d0c109e7296833aull},
    {Approach::kBaseline, 4, 'c', 8605, 0x4ba70ccede621a20ull, 0xbb768596e743b300ull},
    {Approach::kIprobe, 1, 'r', 595058, 0x6413ac8a52b21e5ull, 0x27e58567c11d5db8ull},
    {Approach::kIprobe, 1, 'w', 124304, 0x5716f98bb642555cull, 0x2d0c109e7296833aull},
    {Approach::kIprobe, 1, 'c', 8605, 0x4ba70ccede621a20ull, 0xbb768596e743b300ull},
    {Approach::kIprobe, 4, 'r', 595058, 0x6413ac8a52b21e5ull, 0x27e58567c11d5db8ull},
    {Approach::kIprobe, 4, 'w', 124304, 0x5716f98bb642555cull, 0x2d0c109e7296833aull},
    {Approach::kIprobe, 4, 'c', 8605, 0x4ba70ccede621a20ull, 0xbb768596e743b300ull},
    {Approach::kCommSelf, 1, 'r', 579066, 0x6413ac8a52b21e5ull, 0x27e58567c11d5db8ull},
    {Approach::kCommSelf, 1, 'w', 266272, 0x5716f98bb642555cull, 0x2d0c109e7296833aull},
    {Approach::kCommSelf, 1, 'c', 53995, 0x4ba70ccede621a20ull, 0xbb768596e743b300ull},
    {Approach::kCommSelf, 4, 'r', 579066, 0x6413ac8a52b21e5ull, 0x27e58567c11d5db8ull},
    {Approach::kCommSelf, 4, 'w', 266272, 0x5716f98bb642555cull, 0x2d0c109e7296833aull},
    {Approach::kCommSelf, 4, 'c', 53995, 0x4ba70ccede621a20ull, 0xbb768596e743b300ull},
    {Approach::kOffload, 1, 'r', 450179, 0x6413ac8a52b21e5ull, 0xea610b46742a2121ull},
    {Approach::kOffload, 1, 'w', 126932, 0x5716f98bb642555cull, 0x2d0c109e7296833aull},
    {Approach::kOffload, 1, 'c', 9725, 0x4ba70ccede621a20ull, 0xbb768596e743b300ull},
    {Approach::kOffload, 4, 'r', 448909, 0x6413ac8a52b21e5ull, 0xea610b46742a2121ull},
    {Approach::kOffload, 4, 'w', 127232, 0x5716f98bb642555cull, 0x2d0c109e7296833aull},
    {Approach::kOffload, 4, 'c', 9990, 0x4ba70ccede621a20ull, 0xbb768596e743b300ull},
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

class PersistentGolden : public ::testing::TestWithParam<Param> {};

TEST_P(PersistentGolden, MatchesRecordedContract) {
  const auto [a, proxies] = GetParam();
  for (char scenario : {'r', 'w', 'c'}) {
    const Outcome got = scenario == 'r'   ? run_ring(a, proxies)
                        : scenario == 'w' ? run_window(a, proxies)
                                          : run_chain(a, proxies);
    const Row* want = nullptr;
    for (const Row& row : kGolden) {
      if (row.approach == a && row.proxies == proxies &&
          row.scenario == scenario) {
        want = &row;
      }
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "{%s, %zu, '%c', %lld, 0x%llxull, 0x%llxull},",
                  enum_name(a), proxies, scenario,
                  static_cast<long long>(got.t_ns),
                  static_cast<unsigned long long>(got.payload),
                  static_cast<unsigned long long>(got.status));
    if (want == nullptr) {
      ADD_FAILURE() << "no recorded row; measured:\n    " << line;
      continue;
    }
    EXPECT_TRUE(got.t_ns == want->t_ns && got.payload == want->payload &&
                got.status == want->status)
        << "contract moved; measured:\n    " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Approaches, PersistentGolden,
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
