// Persistent & partitioned point-to-point (DESIGN.md §16): the request
// lifecycle state machine (init -> start -> complete -> restart), pool-slot
// reuse across generations, partition-readiness protocol (double-mark,
// out-of-order publication), phantom (nullptr) partitioned buffers, freeing
// then stopping with several engines, continuation interop over
// generations, and the differential soak — partitioned QCD/CNN results
// bit-identical to the one-shot paths across all four approaches, clean and
// faulted.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "apps/cnn/trainer.hpp"
#include "apps/qcd/dslash.hpp"
#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "mpi/continuation.hpp"

using core::Approach;
using core::PersistentReq;
using smpi::Datatype;

namespace {

smpi::ClusterConfig ccfg(int n, Approach a = Approach::kOffload,
                         bool faulted = false) {
  smpi::ClusterConfig c;
  c.nranks = n;
  c.thread_level = core::required_thread_level(a);
  c.deadline = sim::Time::from_sec(300);
  if (faulted) {
    c.profile.faults.on = true;
    c.profile.faults.drop = 0.05;
    c.profile.faults.dup = 0.02;
    c.profile.faults.seed = 42;
  }
  return c;
}

/// Rank 1 sinks `count` plain persistent-send generations from rank 0.
void sink_recvs(core::Proxy& p, void* buf, std::size_t n, int tag, int count) {
  for (int i = 0; i < count; ++i) {
    core::PReq r = p.irecv(buf, n, Datatype::kByte, 0, tag);
    p.wait(r);
  }
}

}  // namespace

// ---------------------------------------------------------------- lifecycle --

class PersistentLifecycle : public ::testing::TestWithParam<Approach> {};

TEST_P(PersistentLifecycle, MisuseThrows) {
  const Approach a = GetParam();
  smpi::Cluster cluster(ccfg(2, a));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    std::vector<char> buf(256);
    const auto too_many =
        static_cast<std::uint32_t>(smpi::kMaxPartitions) + 1;
    if (rc.rank() == 0) {
      PersistentReq s = p->send_init(buf.data(), buf.size(), Datatype::kByte,
                                     1, 5);
      // Wait on an inactive handle is trivially complete, not an error.
      smpi::Status st;
      p->wait(s, &st);
      EXPECT_EQ(st.bytes, 0u);
      // pready needs a started partitioned SEND.
      EXPECT_THROW(p->pready(s, 0), std::logic_error);
      p->start(s);
      // start-before-complete is the canonical misuse.
      EXPECT_THROW(p->start(s), std::logic_error);
      // ... and so is freeing a started generation.
      EXPECT_THROW(p->request_free(s), std::logic_error);
      p->wait(s);
      // Partitioned misuse: double-mark, out-of-range, wait with unmarked
      // partitions, pready before start.
      PersistentReq ps = p->psend_init(buf.data(), buf.size(), Datatype::kByte,
                                       1, 6, 4);
      EXPECT_THROW(p->pready(ps, 0), std::logic_error);  // not started
      p->start(ps);
      p->pready(ps, 2);
      EXPECT_THROW(p->pready(ps, 2), std::logic_error);  // double mark
      EXPECT_THROW(p->pready(ps, 4), std::logic_error);  // out of range
      EXPECT_THROW(p->wait(ps), std::logic_error);       // 3 unmarked
      EXPECT_FALSE(p->test(ps));                         // can never complete
      p->pready(ps, 0);
      // pready_range is inclusive and re-marking throws, so [1,1] then [3,3].
      p->pready_range(ps, 1, 1);
      EXPECT_THROW(p->pready_range(ps, 1, 3), std::logic_error);  // 2 re-marked
      p->pready(ps, 3);
      p->wait(ps);
      p->request_free(ps);
      // Partition count 1..kMaxPartitions, the same on every approach.
      EXPECT_THROW(p->psend_init(buf.data(), buf.size(), Datatype::kByte, 1,
                                 7, 0),
                   std::logic_error);
      EXPECT_THROW(p->psend_init(buf.data(), buf.size(), Datatype::kByte, 1,
                                 7, too_many),
                   std::logic_error);
      EXPECT_TRUE(ps.is_null());
      p->request_free(ps);  // freeing a null handle is idempotent
      p->request_free(s);
      // Empty startall is a no-op.
      std::vector<PersistentReq> none;
      p->startall(none);
    } else {
      core::PReq r0 = p->irecv(buf.data(), buf.size(), Datatype::kByte, 0, 5);
      p->wait(r0);
      PersistentReq pr = p->precv_init(buf.data(), buf.size(), Datatype::kByte,
                                       0, 6, 4);
      p->start(pr);
      p->wait(pr);
      p->request_free(pr);
      EXPECT_THROW(p->precv_init(buf.data(), buf.size(), Datatype::kByte, 0,
                                 7, 0),
                   std::logic_error);
      EXPECT_THROW(p->precv_init(buf.data(), buf.size(), Datatype::kByte, 0,
                                 7, too_many),
                   std::logic_error);
    }
    p->barrier();
    p->stop();
  });
}

TEST_P(PersistentLifecycle, PartitionedRequiresSpecificSource) {
  const Approach a = GetParam();
  smpi::Cluster cluster(ccfg(2, a));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    std::vector<char> buf(64);
    // Partition frames carry encoded wire tags a wildcard can never match.
    EXPECT_THROW(p->precv_init(buf.data(), buf.size(), Datatype::kByte,
                               smpi::kAnySource, 3, 2),
                 std::logic_error);
    p->barrier();
    p->stop();
  });
}

INSTANTIATE_TEST_SUITE_P(Approaches, PersistentLifecycle,
                         ::testing::Values(Approach::kBaseline,
                                           Approach::kIprobe,
                                           Approach::kCommSelf,
                                           Approach::kOffload));

TEST(PersistentLifecycle, RestartReusesPoolSlot) {
  constexpr int kGens = 6;
  smpi::Cluster cluster(ccfg(2));
  cluster.run([&](smpi::RankCtx& rc) {
    core::OffloadProxy p(rc, core::ProxyOptions{});
    p.start_engine();
    std::vector<char> buf(512);
    if (rc.rank() == 0) {
      PersistentReq s =
          p.send_init(buf.data(), buf.size(), Datatype::kByte, 1, 9);
      const std::uint32_t slot = p.channel().persist_pool_slot(
          static_cast<std::uint32_t>(s.v - 1));
      EXPECT_LT(slot, p.channel().pool().capacity());
      const std::size_t inflight0 = p.inflight();
      for (int g = 0; g < kGens; ++g) {
        p.start(s);
        p.wait(s);
        // The envelope is init-once: every generation re-arms the SAME pool
        // slot instead of allocating a new one.
        EXPECT_EQ(p.channel().persist_pool_slot(
                      static_cast<std::uint32_t>(s.v - 1)),
                  slot)
            << "generation " << g;
        EXPECT_EQ(p.inflight(), inflight0) << "generation " << g;
      }
      p.request_free(s);
    } else {
      sink_recvs(p, buf.data(), buf.size(), 9, kGens);
    }
    p.barrier();
    p.stop();
  });
}

// --------------------------------------------------------------- partitioned --

class PartitionedData : public ::testing::TestWithParam<Approach> {};

TEST_P(PartitionedData, OutOfOrderPreadyDeliversWholeMessage) {
  const Approach a = GetParam();
  constexpr std::uint32_t kParts = 4;
  constexpr std::size_t kBytes = 4096;
  constexpr int kGens = 3;
  smpi::Cluster cluster(ccfg(2, a));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    std::vector<char> buf(kBytes);
    if (rc.rank() == 0) {
      PersistentReq s =
          p->psend_init(buf.data(), kBytes, Datatype::kByte, 1, 11, kParts);
      for (int g = 0; g < kGens; ++g) {
        p->start(s);
        // Publish partitions out of order, filling each chunk just before
        // its pready — early chunks ship while later ones are still blank.
        for (std::uint32_t part : {2u, 0u, 3u, 1u}) {
          const std::size_t lo = kBytes * part / kParts;
          const std::size_t hi = kBytes * (part + 1) / kParts;
          std::memset(buf.data() + lo, 'a' + static_cast<int>(part) + g,
                      hi - lo);
          p->pready(s, part);
        }
        p->wait(s);
      }
      p->request_free(s);
    } else {
      PersistentReq r =
          p->precv_init(buf.data(), kBytes, Datatype::kByte, 0, 11, kParts);
      for (int g = 0; g < kGens; ++g) {
        p->start(r);
        smpi::Status st;
        p->wait(r, &st);
        EXPECT_EQ(st.bytes, kBytes);
        EXPECT_EQ(st.tag, 11);
        for (std::uint32_t part = 0; part < kParts; ++part) {
          const std::size_t lo = kBytes * part / kParts;
          EXPECT_EQ(buf[lo], static_cast<char>('a' + static_cast<int>(part) + g))
              << "generation " << g << " partition " << part;
        }
      }
      p->request_free(r);
    }
    p->barrier();
    p->stop();
  });
}

INSTANTIATE_TEST_SUITE_P(Approaches, PartitionedData,
                         ::testing::Values(Approach::kBaseline,
                                           Approach::kIprobe,
                                           Approach::kCommSelf,
                                           Approach::kOffload));

// Phantom (nullptr) payloads move only byte counts: a partitioned request on
// a null buffer must slice into null partitions, never nullptr + offset.
class PhantomPartitioned
    : public ::testing::TestWithParam<std::tuple<Approach, std::size_t>> {};

TEST_P(PhantomPartitioned, NullBufferRoundTrip) {
  const auto [a, part_bytes] = GetParam();
  constexpr std::uint32_t kParts = 8;
  smpi::Cluster cluster(ccfg(2, a));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    const std::size_t bytes = part_bytes * kParts;
    PersistentReq r =
        rc.rank() == 0
            ? p->psend_init(nullptr, bytes, Datatype::kByte, 1, 4, kParts)
            : p->precv_init(nullptr, bytes, Datatype::kByte, 0, 4, kParts);
    for (int g = 0; g < 2; ++g) {
      p->start(r);
      if (rc.rank() == 0) p->pready_range(r, 0, kParts - 1);
      smpi::Status st;
      p->wait(r, &st);
      EXPECT_EQ(st.bytes, bytes);
    }
    p->request_free(r);
    p->barrier();
    p->stop();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Approaches, PhantomPartitioned,
    ::testing::Combine(::testing::Values(Approach::kBaseline,
                                         Approach::kIprobe,
                                         Approach::kCommSelf,
                                         Approach::kOffload),
                       ::testing::Values(std::size_t{512},
                                         std::size_t{136 * 1024})));

// Freeing partitioned requests whose partitions several engines shipped,
// then stopping: every engine must still see its shutdown. The virtual
// deadline turns a regression into a failure instead of a hung run.
class PartitionedFreeThenStop : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionedFreeThenStop, AllEnginesExit) {
  constexpr int kRanks = 4;
  constexpr std::uint32_t kParts = 8;
  constexpr std::size_t kFace = kParts * 136 * 1024;
  smpi::ClusterConfig cc = ccfg(kRanks);
  cc.deadline = sim::Time::from_ms(100);  // a clean run needs ~2 ms
  smpi::Cluster cluster(cc);
  cluster.run([&](smpi::RankCtx& rc) {
    core::ProxyOptions opts;
    opts.proxy_count = GetParam();
    core::OffloadProxy p(rc, opts);
    p.start_engine();
    const int r = rc.rank();
    const int right = (r + 1) % kRanks, left = (r + kRanks - 1) % kRanks;
    std::vector<char> to_r(kFace), to_l(kFace), from_l(kFace), from_r(kFace);
    std::vector<PersistentReq> reqs = {
        p.psend_init(to_r.data(), kFace, Datatype::kByte, right, 1, kParts),
        p.psend_init(to_l.data(), kFace, Datatype::kByte, left, 2, kParts),
        p.precv_init(from_l.data(), kFace, Datatype::kByte, left, 1, kParts),
        p.precv_init(from_r.data(), kFace, Datatype::kByte, right, 2, kParts)};
    for (int g = 0; g < 4; ++g) {
      p.startall(reqs);
      p.pready_range(reqs[0], 0, kParts - 1);
      p.pready_range(reqs[1], 0, kParts - 1);
      for (PersistentReq& q : reqs) p.wait(q);
    }
    for (PersistentReq& q : reqs) p.request_free(q);
    p.stop();
    EXPECT_EQ(p.inflight(), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(Engines, PartitionedFreeThenStop,
                         ::testing::Values(std::size_t{2}, std::size_t{3},
                                           std::size_t{4}));

// -------------------------------------------------------------- continuation --

TEST(PersistentContinuation, GenerationChainsAndRestarts) {
  constexpr int kGens = 4;
  smpi::Cluster cluster(ccfg(2));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(Approach::kOffload, rc);
    p->start_engine();
    std::vector<char> buf(128);
    if (rc.rank() == 0) {
      PersistentReq s =
          p->send_init(buf.data(), buf.size(), Datatype::kByte, 1, 21);
      // Self-restarting generation loop: the callback observes the handle
      // back in the inactive state and starts the next generation itself.
      int fired = 0;
      cont::Event done;
      core::ContFn next = [&](const smpi::Status&) {
        if (++fired == kGens) {
          done.set();
          return;
        }
        p->start(s);
        cont::generation(*p, s).then(next);
      };
      p->start(s);
      cont::generation(*p, s).then(next);
      done.wait(*p);
      EXPECT_EQ(fired, kGens);
      p->request_free(s);
    } else {
      sink_recvs(*p, buf.data(), buf.size(), 21, kGens);
    }
    p->barrier();
    p->stop();
  });
}

TEST(PersistentContinuation, WhenAllGenerations) {
  smpi::Cluster cluster(ccfg(2));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(Approach::kOffload, rc);
    p->start_engine();
    std::vector<char> a(64), b(64);
    if (rc.rank() == 0) {
      std::vector<PersistentReq> rs = {
          p->send_init(a.data(), a.size(), Datatype::kByte, 1, 31),
          p->send_init(b.data(), b.size(), Datatype::kByte, 1, 32)};
      p->startall(rs);
      cont::Event done;
      cont::when_all_generations(*p, rs,
                                 [&done](const smpi::Status&) { done.set(); });
      done.wait(*p);
      for (PersistentReq& r : rs) p->request_free(r);
    } else {
      core::PReq r31 = p->irecv(a.data(), a.size(), Datatype::kByte, 0, 31);
      core::PReq r32 = p->irecv(b.data(), b.size(), Datatype::kByte, 0, 32);
      p->wait(r31);
      p->wait(r32);
    }
    p->barrier();
    p->stop();
  });
}

// -------------------------------------------------------- differential soaks --

namespace {

/// QCD digest: the partitioned-persistent halo path must be bit-identical
/// to the one-shot apply() on every rank, for several restarted generations.
void dslash_differential(Approach a, bool faulted, std::size_t proxies) {
  using namespace qcd;
  const int nranks = 4;
  const Dims global{4, 4, 4, 8};
  const Dims grid = choose_grid(nranks, global);

  SpinorField gpsi(global);
  GaugeField gu(global);
  fill_random_spinor(gpsi, 11);
  fill_random_gauge(gu, 22);

  smpi::Cluster cluster(ccfg(nranks, a, faulted));
  cluster.run([&](smpi::RankCtx& rc) {
    std::unique_ptr<core::Proxy> p;
    if (a == Approach::kOffload) {
      core::ProxyOptions opts;
      opts.proxy_count = proxies;
      p = std::make_unique<core::OffloadProxy>(rc, opts);
    } else {
      p = core::make_proxy(a, rc);
    }
    p->start_engine();
    Decomposition dec(global, grid, rc.rank());
    DistributedDslash d(dec, *p);
    // Scatter the global fields into the local blocks.
    const Dims& ld = dec.local();
    Dims c;
    for (c[kT] = 0; c[kT] < ld[kT]; ++c[kT])
      for (c[kZ] = 0; c[kZ] < ld[kZ]; ++c[kZ])
        for (c[kY] = 0; c[kY] < ld[kY]; ++c[kY])
          for (c[kX] = 0; c[kX] < ld[kX]; ++c[kX]) {
            const int li = site_index(c, ld);
            const int gi = site_index(dec.to_global(c), global);
            for (int i = 0; i < kSpinorFloats; ++i)
              d.psi().site(li)[i] = gpsi.site(gi)[i];
            for (int mu = 0; mu < 4; ++mu)
              for (int i = 0; i < kLinkEntries; ++i)
                d.gauge().link(li, mu)[i] = gu.link(gi, mu)[i];
          }
    SpinorField ref(dec.local()), got(dec.local());
    d.apply(ref);
    for (int gen = 0; gen < 3; ++gen) {
      d.apply_partitioned(got);
      EXPECT_EQ(std::memcmp(got.v.data(), ref.v.data(),
                            got.v.size() * sizeof(qcd::cf)),
                0)
          << "rank " << rc.rank() << " generation " << gen;
    }
    p->barrier();
    d.release_persistent();
    p->barrier();
    p->stop();
  });
}

}  // namespace

class PartitionedDslash
    : public ::testing::TestWithParam<std::tuple<Approach, bool>> {};

TEST_P(PartitionedDslash, BitIdenticalToOneShot) {
  const auto [a, faulted] = GetParam();
  dslash_differential(a, faulted, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Approaches, PartitionedDslash,
    ::testing::Combine(::testing::Values(Approach::kBaseline, Approach::kIprobe,
                                         Approach::kCommSelf,
                                         Approach::kOffload),
                       ::testing::Bool()));

TEST(PartitionedDslash, BitIdenticalUnderShardedEngines) {
  dslash_differential(Approach::kOffload, /*faulted=*/false, /*proxies=*/4);
  dslash_differential(Approach::kOffload, /*faulted=*/true, /*proxies=*/4);
}

namespace {

/// Train 3 steps with the given gradient mode; returns the final conv
/// weights of rank 0 (all ranks hold identical weights by construction).
std::vector<float> cnn_train(Approach a, cnn::DistributedTrainer::GradMode m,
                             bool faulted) {
  using namespace cnn;
  const int nranks = 2;
  const int batch = 8, in_c = 1, h = 6, w = 6, conv_c = 2, hidden = 8, out = 4;
  Tensor images(batch, in_c, h, w);
  fill_random(images.v, 77, 1.0f);
  std::vector<float> targets(static_cast<std::size_t>(batch) * out);
  fill_random(targets, 88, 1.0f);

  std::vector<float> final_w;
  smpi::Cluster cluster(ccfg(nranks, a, faulted));
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(a, rc);
    p->start_engine();
    DistributedTrainer trainer(rc, *p, in_c, h, w, conv_c, hidden, out);
    trainer.set_grad_mode(m);
    const int local_b = batch / nranks;
    Tensor shard(local_b, in_c, h, w);
    std::copy(images.v.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(rc.rank()) *
                                     shard.size()),
              images.v.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(rc.rank() + 1) *
                                     shard.size()),
              shard.v.begin());
    for (int s = 0; s < 3; ++s) trainer.train_step(shard, targets, batch, 0.05f);
    if (rc.rank() == 0) final_w = trainer.conv().weight;
    p->barrier();
    trainer.release_persistent();
    p->barrier();
    p->stop();
  });
  return final_w;
}

}  // namespace

class PartitionedCnn : public ::testing::TestWithParam<Approach> {};

TEST_P(PartitionedCnn, RingModesBitIdentical) {
  using GradMode = cnn::DistributedTrainer::GradMode;
  const Approach a = GetParam();
  const std::vector<float> one_shot = cnn_train(a, GradMode::kRingOneShot,
                                                /*faulted=*/false);
  const std::vector<float> persistent = cnn_train(a, GradMode::kRingPersistent,
                                                  /*faulted=*/false);
  ASSERT_EQ(one_shot.size(), persistent.size());
  ASSERT_FALSE(one_shot.empty());
  // Identical float-addition order in both ring modes -> identical bits.
  EXPECT_EQ(std::memcmp(one_shot.data(), persistent.data(),
                        one_shot.size() * sizeof(float)),
            0);
  // And faults must not perturb the arithmetic either.
  const std::vector<float> faulted = cnn_train(a, GradMode::kRingPersistent,
                                               /*faulted=*/true);
  EXPECT_EQ(std::memcmp(one_shot.data(), faulted.data(),
                        one_shot.size() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(Approaches, PartitionedCnn,
                         ::testing::Values(Approach::kBaseline,
                                           Approach::kOffload));
