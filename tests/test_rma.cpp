// One-sided (RMA) tests: put/get correctness, fence semantics, overlap,
// offload-proxy round trips, error handling.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"

using namespace smpi;
using core::Approach;

namespace {
ClusterConfig cfg(int n) {
  ClusterConfig c;
  c.nranks = n;
  c.deadline = sim::Time::from_sec(60);
  return c;
}
}  // namespace

class RmaProxies : public ::testing::TestWithParam<Approach> {};

TEST_P(RmaProxies, PutIntoNeighborWindow) {
  const Approach a = GetParam();
  ClusterConfig c = cfg(4);
  c.thread_level = core::required_thread_level(a);
  Cluster cluster(c);
  cluster.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), np = rc.nranks();
    std::vector<int> window(static_cast<std::size_t>(np), -1);
    Win w = p->win_create(window.data(), window.size() * sizeof(int));
    // Everyone writes its rank into slot `me` of every peer's window.
    for (int t = 0; t < np; ++t) {
      const int v = me;
      p->put(&v, sizeof(int), t, static_cast<std::size_t>(me) * sizeof(int), w);
    }
    p->fence(w);
    for (int i = 0; i < np; ++i) {
      EXPECT_EQ(window[static_cast<std::size_t>(i)], i);
    }
    p->win_free(w);
    p->stop();
  });
}

TEST_P(RmaProxies, GetFromNeighborWindow) {
  const Approach a = GetParam();
  ClusterConfig c = cfg(3);
  c.thread_level = core::required_thread_level(a);
  Cluster cluster(c);
  cluster.run([&](RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), np = rc.nranks();
    std::vector<double> window(8, me * 1.5);
    Win w = p->win_create(window.data(), window.size() * sizeof(double));
    p->fence(w);  // everyone's window initialized
    const int peer = (me + 1) % np;
    std::vector<double> got(8, -1);
    p->get(got.data(), got.size() * sizeof(double), peer, 0, w);
    p->fence(w);
    for (double v : got) EXPECT_DOUBLE_EQ(v, peer * 1.5);
    p->win_free(w);
    p->stop();
  });
}

INSTANTIATE_TEST_SUITE_P(Approaches, RmaProxies,
                         ::testing::Values(Approach::kBaseline,
                                           Approach::kIprobe,
                                           Approach::kCommSelf,
                                           Approach::kOffload),
                         [](const ::testing::TestParamInfo<Approach>& i) {
                           std::string n = core::approach_name(i.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(Rma, LargePutMovesWithoutTargetCpu) {
  // The target computes throughout; the put lands anyway (true RDMA).
  Cluster cluster(cfg(2));
  cluster.run([&](RankCtx& rc) {
    const std::size_t n = 1 << 20;
    std::vector<char> window(n, 'w');
    Win w = rc.win_create(window.data(), n, kCommWorld);
    if (rc.rank() == 0) {
      std::vector<char> src(n, 'P');
      rc.put(src.data(), n, 1, 0, w);
      rc.win_fence(w);
    } else {
      compute(sim::Time::from_ms(1));  // not in MPI while the put flies
      rc.win_fence(w);
      EXPECT_EQ(window[0], 'P');
      EXPECT_EQ(window[n - 1], 'P');
    }
  });
}

TEST(Rma, FenceWaitsForOutstandingOps) {
  Cluster cluster(cfg(2));
  std::int64_t fence_ns = 0;
  cluster.run([&](RankCtx& rc) {
    const std::size_t n = 6 << 20;  // ~1ms of wire
    std::vector<char> window(rc.rank() == 1 ? n : 0);
    Win w = rc.win_create(window.empty() ? nullptr : window.data(),
                          window.empty() ? n : window.size(), kCommWorld);
    if (rc.rank() == 0) {
      rc.put(nullptr, n, 1, 0, w);  // phantom payload
      const sim::Time t0 = sim::now();
      rc.win_fence(w);
      fence_ns = (sim::now() - t0).ns();
    } else {
      rc.win_fence(w);
    }
  });
  EXPECT_GT(fence_ns, 900000);  // the fence absorbed the wire time
}

TEST(Rma, MultipleWindowsAreIndependent) {
  Cluster cluster(cfg(2));
  cluster.run([&](RankCtx& rc) {
    int wa = -1, wb = -1;
    Win a = rc.win_create(&wa, sizeof(int), kCommWorld);
    Win b = rc.win_create(&wb, sizeof(int), kCommWorld);
    const int peer = 1 - rc.rank();
    const int va = 100 + rc.rank(), vb = 200 + rc.rank();
    rc.put(&va, sizeof(int), peer, 0, a);
    rc.put(&vb, sizeof(int), peer, 0, b);
    rc.win_fence(a);
    rc.win_fence(b);
    EXPECT_EQ(wa, 100 + peer);
    EXPECT_EQ(wb, 200 + peer);
  });
}

TEST(Rma, OutOfRangeAccessThrows) {
  Cluster cluster(cfg(2));
  EXPECT_THROW(cluster.run([&](RankCtx& rc) {
                 int x = 0;
                 Win w = rc.win_create(&x, sizeof(int), kCommWorld);
                 const long big = 1;
                 rc.put(&big, sizeof(long), 1 - rc.rank(), 0, w);  // 8 > 4
                 rc.win_fence(w);
               }),
               std::out_of_range);
}

TEST(Rma, UseAfterFreeThrows) {
  Cluster cluster(cfg(2));
  EXPECT_THROW(cluster.run([&](RankCtx& rc) {
                 int x = 0;
                 Win w = rc.win_create(&x, sizeof(int), kCommWorld);
                 rc.win_free(w);
                 barrier();
                 const int v = 1;
                 rc.put(&v, sizeof(int), 1 - rc.rank(), 0, w);
               }),
               std::invalid_argument);
}

TEST(Rma, OffloadedFenceDoesNotStallOtherCommands) {
  // The Section-3.3 caveat, solved: a fence in the command stream is issued
  // as a nonblocking ifence, so later p2p commands still flow.
  ClusterConfig c = cfg(2);
  Cluster cluster(c);
  cluster.run([&](RankCtx& rc) {
    core::OffloadProxy p(rc);
    p.start_engine();
    const int me = rc.rank(), peer = 1 - me;
    int wslot = -1;
    Win w = p.win_create(&wslot, sizeof(int), kCommWorld);
    const int v = 42 + me;
    p.put(&v, sizeof(int), peer, 0, w);
    // Concurrent p2p while the fence is pending engine-side.
    int got = -1;
    core::PReq rr = p.irecv(&got, 1, Datatype::kInt, peer, 9);
    core::PReq rs = p.isend(&v, 1, Datatype::kInt, peer, 9);
    p.fence(w);
    p.wait(rr);
    p.wait(rs);
    EXPECT_EQ(wslot, 42 + peer);
    EXPECT_EQ(got, 42 + peer);
    p.win_free(w);
    p.stop();
  });
}
