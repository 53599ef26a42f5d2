// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"

using namespace sim;
using namespace sim::literals;

TEST(Time, ArithmeticAndConversions) {
  Time a = Time::from_us(1.5);
  EXPECT_EQ(a.ns(), 1500);
  EXPECT_DOUBLE_EQ(a.us(), 1.5);
  EXPECT_EQ((a + 500_ns).ns(), 2000);
  EXPECT_EQ((a - 500_ns).ns(), 1000);
  EXPECT_EQ((a * 2).ns(), 3000);
  EXPECT_LT(Time::zero(), a);
  EXPECT_EQ(Time::from_ms(1).ns(), 1000000);
  EXPECT_EQ(Time::from_sec(1).ns(), 1000000000);
}

TEST(Engine, AdvanceMovesVirtualClock) {
  Engine e;
  Time seen_before, seen_after;
  e.spawn("f", [&] {
    seen_before = now();
    advance(10_us);
    seen_after = now();
  });
  e.run();
  EXPECT_EQ(seen_before.ns(), 0);
  EXPECT_EQ(seen_after.ns(), 10000);
  EXPECT_TRUE(e.all_fibers_done());
}

TEST(Engine, FibersInterleaveByTime) {
  Engine e;
  std::vector<int> order;
  e.spawn("a", [&] {
    advance(5_us);
    order.push_back(1);
    advance(10_us);
    order.push_back(3);
  });
  e.spawn("b", [&] {
    advance(8_us);
    order.push_back(2);
    advance(20_us);
    order.push_back(4);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(e.now().ns(), 28000);
}

TEST(Engine, SameTimeEventsFireInInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.spawn("f" + std::to_string(i), [&order, i] {
      advance(Time::from_us(1));
      order.push_back(i);
    });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CallAtRunsCallbacksAtTheRightTime) {
  Engine e;
  std::vector<std::int64_t> at;
  e.call_at(5_us, [&] { at.push_back(Engine::current()->now().ns()); });
  e.call_at(2_us, [&] { at.push_back(Engine::current()->now().ns()); });
  e.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{2000, 5000}));
}

TEST(Engine, BlockAndUnblock) {
  Engine e;
  bool woke = false;
  Fiber* sleeper = nullptr;
  sleeper = &e.spawn("sleeper", [&] {
    Engine::current()->block();
    woke = true;
  });
  e.spawn("waker", [&] {
    advance(3_us);
    Engine::current()->unblock(*sleeper);
  });
  e.run();
  EXPECT_TRUE(woke);
  EXPECT_TRUE(e.all_fibers_done());
}

TEST(Engine, DuplicateUnblockDoesNotDoubleResume) {
  Engine e;
  int resumes = 0;
  Fiber* sleeper = &e.spawn("sleeper", [&] {
    Engine::current()->block();
    ++resumes;
    Engine::current()->block();  // second sleep: must need a second unblock
    ++resumes;
  });
  e.spawn("waker", [&] {
    advance(1_us);
    Engine::current()->unblock(*sleeper);
    Engine::current()->unblock(*sleeper);  // stale duplicate
    advance(10_us);
    Engine::current()->unblock(*sleeper);
  });
  e.run();
  EXPECT_EQ(resumes, 2);
  EXPECT_TRUE(e.all_fibers_done());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  e.spawn("t", [&] {
    for (int i = 0; i < 100; ++i) advance(1_ms);
  });
  const Time end = e.run_until(Time::from_ms(10));
  EXPECT_LE(end.ns(), Time::from_ms(11).ns());
  EXPECT_FALSE(e.all_fibers_done());
  EXPECT_EQ(e.unfinished_fibers().size(), 1u);
}

TEST(Engine, DeadlockedFibersAreNamedInDiagnostics) {
  // Classic AB-BA deadlock: run() returns once no event can fire, and
  // unfinished_fibers() must name exactly the stuck fibers so the user can
  // see who is blocked (and not the fiber that completed).
  Engine e;
  Mutex a;
  Mutex b;
  e.spawn("lock-a-then-b", [&] {
    a.lock();
    advance(1_us);  // guarantee both fibers hold their first mutex
    b.lock();
    b.unlock();
    a.unlock();
  });
  e.spawn("lock-b-then-a", [&] {
    b.lock();
    advance(1_us);
    a.lock();
    a.unlock();
    b.unlock();
  });
  e.spawn("bystander", [&] { advance(5_us); });
  e.run();

  EXPECT_FALSE(e.all_fibers_done());
  const std::vector<std::string> stuck = e.unfinished_fibers();
  ASSERT_EQ(stuck.size(), 2u);
  EXPECT_NE(std::find(stuck.begin(), stuck.end(), "lock-a-then-b"),
            stuck.end());
  EXPECT_NE(std::find(stuck.begin(), stuck.end(), "lock-b-then-a"),
            stuck.end());
  EXPECT_EQ(std::find(stuck.begin(), stuck.end(), "bystander"), stuck.end());
}

TEST(Engine, FiberStuckOnForeverHeldMutexIsReported) {
  Engine e;
  Mutex m;
  Mutex cv_m;
  CondVar never_signaled;
  e.spawn("holder", [&] {
    m.lock();  // held across the wait: progress hostage
    cv_m.lock();
    never_signaled.wait(cv_m);  // parks forever (releases only cv_m)
    cv_m.unlock();
    m.unlock();
  });
  e.spawn("blocked-on-mutex", [&] {
    advance(1_us);
    m.lock();
    m.unlock();
  });
  e.run();

  const std::vector<std::string> stuck = e.unfinished_fibers();
  ASSERT_EQ(stuck.size(), 2u);
  EXPECT_NE(std::find(stuck.begin(), stuck.end(), "holder"), stuck.end());
  EXPECT_NE(std::find(stuck.begin(), stuck.end(), "blocked-on-mutex"),
            stuck.end());
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    Rng rng(42);
    std::vector<std::int64_t> trace;
    for (int f = 0; f < 4; ++f) {
      e.spawn("f", [&, f] {
        Rng local(static_cast<std::uint64_t>(f) + 7);
        for (int i = 0; i < 50; ++i) {
          advance(Time(static_cast<std::int64_t>(local.next_below(1000) + 1)));
          trace.push_back(now().ns() * 10 + f);
        }
      });
    }
    e.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, StatsCountEvents) {
  Engine e;
  e.spawn("f", [&] {
    for (int i = 0; i < 5; ++i) advance(1_us);
  });
  e.run();
  EXPECT_EQ(e.stats().fibers_spawned, 1u);
  EXPECT_GE(e.stats().events_fired, 6u);
}

TEST(Engine, ManyFibersLargeFanout) {
  Engine e;
  int done = 0;
  for (int i = 0; i < 2000; ++i) {
    e.spawn("w", [&, i] {
      advance(Time(i % 97));
      ++done;
    });
  }
  e.run();
  EXPECT_EQ(done, 2000);
}

TEST(Rng, DeterministicAndRoughlyUniform) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
  Rng r(123);
  constexpr int kN = 10000;
  double sum = 0, lo = 1, hi = 0;
  for (int i = 0; i < kN; ++i) {
    const double v = r.next_double();
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
  EXPECT_GE(lo, 0.0);
  EXPECT_LT(hi, 1.0);
}
