// Semantic equivalence across the four approaches: identical application
// code must produce identical data under every proxy (only timing differs).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"

using namespace smpi;
using namespace core;

namespace {

ClusterConfig cfg_for(Approach a, int n) {
  ClusterConfig c;
  c.nranks = n;
  c.thread_level = required_thread_level(a);
  c.deadline = sim::Time::from_sec(30);
  return c;
}

}  // namespace

class ProxyMatrix : public ::testing::TestWithParam<Approach> {};

TEST_P(ProxyMatrix, HaloExchangePattern) {
  // The Listing-1 pattern: pack, post nonblocking halo exchange, compute,
  // wait, unpack — the core loop of the QCD/stencil application.
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 4));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank(), np = 4;
    const int left = (me + np - 1) % np, right = (me + 1) % np;
    const std::size_t n = 4096;
    std::vector<double> send_l(n, me * 10 + 1), send_r(n, me * 10 + 2);
    std::vector<double> recv_l(n), recv_r(n);
    for (int iter = 0; iter < 3; ++iter) {
      PReq reqs[4];
      reqs[0] = p->irecv(recv_l.data(), n, Datatype::kDouble, left, 0);
      reqs[1] = p->irecv(recv_r.data(), n, Datatype::kDouble, right, 1);
      reqs[2] = p->isend(send_r.data(), n, Datatype::kDouble, right, 0);
      reqs[3] = p->isend(send_l.data(), n, Datatype::kDouble, left, 1);
      compute(sim::Time::from_us(30));
      p->progress_hint();
      compute(sim::Time::from_us(30));
      p->waitall(reqs);
      EXPECT_DOUBLE_EQ(recv_l[0], left * 10 + 2);
      EXPECT_DOUBLE_EQ(recv_r[n - 1], right * 10 + 1);
      p->barrier();
    }
    p->stop();
  });
}

TEST_P(ProxyMatrix, CollectiveSuiteProducesIdenticalData) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 4));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc);
    p->start_engine();
    const int me = rc.rank();
    double v = me + 1.0, s = 0;
    p->allreduce(&v, &s, 1, Datatype::kDouble, Op::kSum);
    EXPECT_DOUBLE_EQ(s, 10.0);
    std::vector<float> blocks(4, static_cast<float>(me)), out(4);
    p->alltoall(blocks.data(), out.data(), 1, Datatype::kFloat);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], static_cast<float>(i));
    int root_val = me == 2 ? 1234 : 0;
    p->bcast(&root_val, 1, Datatype::kInt, 2);
    EXPECT_EQ(root_val, 1234);
    p->stop();
  });
}

TEST_P(ProxyMatrix, RendezvousMessagesThroughProxy) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc);
    p->start_engine();
    const std::size_t big = 1 << 20;
    std::vector<char> sb(big, static_cast<char>('A' + rc.rank())), rb(big);
    const int peer = 1 - rc.rank();
    PReq rr = p->irecv(rb.data(), big, Datatype::kByte, peer, 0);
    PReq rs = p->isend(sb.data(), big, Datatype::kByte, peer, 0);
    compute(sim::Time::from_us(200));
    p->wait(rr);
    p->wait(rs);
    EXPECT_EQ(rb[0], static_cast<char>('A' + peer));
    EXPECT_EQ(rb[big - 1], static_cast<char>('A' + peer));
    p->stop();
  });
}

TEST_P(ProxyMatrix, ComputeThreadAccounting) {
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc);
    const int cores = 14;
    const int expect = (a == Approach::kOffload || a == Approach::kCommSelf)
                           ? cores - 1
                           : cores;
    EXPECT_EQ(p->compute_threads(cores), expect);
    (void)rc;
  });
}

TEST_P(ProxyMatrix, PostBatchRejectsBadGroupBeforePostingAny) {
  // Nine valid sends and then one op that cannot batch: the whole group is
  // rejected up front, whatever the approach or its flush threshold — no
  // prefix of it may reach the peer, and no handle comes back.
  const Approach a = GetParam();
  Cluster c(cfg_for(a, 2));
  c.run([&](RankCtx& rc) {
    auto p = make_proxy(a, rc, ProxyOptions{.batch_flush = 8});
    p->start_engine();
    int vals[9] = {};
    if (rc.rank() == 0) {
      std::vector<BatchOp> ops;
      for (int& v : vals) ops.push_back(BatchOp::isend(&v, 1, Datatype::kInt, 1, 7));
      BatchOp bad = BatchOp::isend(&vals[0], 1, Datatype::kInt, 1, 7);
      bad.op = CmdOp::kIbarrier;
      ops.push_back(bad);
      std::vector<PReq> out(ops.size());
      try {
        p->post_batch(ops, out);
        ADD_FAILURE() << "post_batch accepted a non-batchable op";
      } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "post_batch: only isend/irecv/start ops batch");
      }
      for (const PReq& r : out) EXPECT_TRUE(r.is_null());
      int sentinel = 42;
      p->send(&sentinel, 1, Datatype::kInt, 1, 99);
    } else {
      // Non-overtaking: had any batched send gone out, it would match first.
      int got = 0;
      Status st;
      p->recv(&got, 1, Datatype::kInt, 0, kAnyTag, kCommWorld, &st);
      EXPECT_EQ(st.tag, 99);
      EXPECT_EQ(got, 42);
    }
    p->barrier();
    p->stop();
  });
}

INSTANTIATE_TEST_SUITE_P(Approaches, ProxyMatrix,
                         ::testing::Values(Approach::kBaseline, Approach::kIprobe,
                                           Approach::kCommSelf, Approach::kOffload),
                         [](const ::testing::TestParamInfo<Approach>& info) {
                           std::string n = approach_name(info.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(ProxyFactory, NamesRoundTrip) {
  for (Approach a : {Approach::kBaseline, Approach::kIprobe, Approach::kCommSelf,
                     Approach::kOffload}) {
    EXPECT_EQ(approach_from_string(approach_name(a)), a);
  }
  // Both spellings of comm-self parse to the same approach.
  EXPECT_EQ(approach_from_string("commself"), Approach::kCommSelf);
  EXPECT_EQ(approach_from_string("comm-self"), Approach::kCommSelf);
  // The rejection names every valid choice, so a CLI typo is self-explaining.
  try {
    approach_from_string("bogus");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    for (const char* name : {"baseline", "iprobe", "comm-self", "offload"}) {
      EXPECT_NE(msg.find(name), std::string::npos) << name << ": " << msg;
    }
  }
}

TEST(ProxyFactory, RequiredThreadLevels) {
  EXPECT_EQ(required_thread_level(Approach::kBaseline), ThreadLevel::kFunneled);
  EXPECT_EQ(required_thread_level(Approach::kIprobe), ThreadLevel::kFunneled);
  EXPECT_EQ(required_thread_level(Approach::kCommSelf), ThreadLevel::kMultiple);
  EXPECT_EQ(required_thread_level(Approach::kOffload), ThreadLevel::kFunneled);
}
