// google-benchmark microbenchmarks of the offload core data structures on
// REAL host time (not simulated): the lock-free MPSC command ring and the
// request pool. These validate that the structures the paper's ~140 ns
// command-post figure depends on are in fact O(100ns) operations.
//
// The last three rows time the simulator itself: one sim::Context switch
// round trip, the events per second of the engine when every event is a
// fiber yield, and one fiber's spawn, first dispatch and finish. Host speed
// of the simulator is about one round trip per event. On a 4-core x86-64
// Xeon (RelWithDebInfo) the hand-written switch takes 32-38 ns per round
// trip, 15-16 M events/s and 270-300 ns per spawn; the ucontext switch that
// sanitizer builds keep took 530-640 ns, 1.5-1.6 M events/s and 1.3 us, most
// of it the signal-mask system call glibc makes on every swap and getcontext.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>

#include "core/command.hpp"
#include "core/mpsc_ring.hpp"
#include "core/request_pool.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"

namespace {

void BM_RingPushPop(benchmark::State& state) {
  core::MpscRing<core::Command> ring(1024);
  core::Command cmd;
  cmd.op = core::CmdOp::kIsend;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(cmd));
    core::Command out;
    benchmark::DoNotOptimize(ring.try_pop(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPushPop);

void BM_RingContendedPush(benchmark::State& state) {
  static core::MpscRing<core::Command>* ring = nullptr;
  static std::thread* drainer = nullptr;
  static std::atomic<bool> stop{false};
  if (state.thread_index() == 0) {
    ring = new core::MpscRing<core::Command>(4096);
    stop.store(false);
    drainer = new std::thread([] {
      core::Command out;
      while (!stop.load(std::memory_order_acquire)) {
        while (ring->try_pop(out)) {
        }
      }
    });
  }
  core::Command cmd;
  cmd.op = core::CmdOp::kIsend;
  for (auto _ : state) {
    while (!ring->try_push(cmd)) {
    }
  }
  if (state.thread_index() == 0) {
    stop.store(true, std::memory_order_release);
    drainer->join();
    delete drainer;
    delete ring;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingContendedPush)->Threads(1)->Threads(2)->Threads(4);

void BM_RequestPoolAllocFree(benchmark::State& state) {
  core::RequestPool pool(4096);
  for (auto _ : state) {
    const std::uint32_t idx = pool.alloc();
    benchmark::DoNotOptimize(idx);
    pool.free(idx);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestPoolAllocFree);

void BM_RequestPoolCompleteCheck(benchmark::State& state) {
  core::RequestPool pool(16);
  const std::uint32_t idx = pool.alloc();
  smpi::Status st;
  for (auto _ : state) {
    pool.complete(idx, st);
    benchmark::DoNotOptimize(pool.done(idx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestPoolCompleteCheck);

struct PingPong {
  sim::Context host;
  sim::Context peer;
  bool stop = false;
};

void peer_loop(void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  while (!pp->stop) sim::Context::swap(pp->peer, pp->host);
  sim::Context::finish(pp->peer, pp->host);
}

/// One iteration = host -> peer -> host, two stack switches.
void BM_ContextSwapRoundTrip(benchmark::State& state) {
  constexpr std::size_t kStack = 64 * 1024;
  PingPong pp;
  std::unique_ptr<char[]> stack(new char[kStack]);
  pp.peer.start(&peer_loop, &pp, stack.get(), kStack);
  for (auto _ : state) sim::Context::swap(pp.host, pp.peer);
  pp.stop = true;
  sim::Context::swap(pp.host, pp.peer);  // let the peer finish
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContextSwapRoundTrip);

/// One fiber yields range(0) times per engine run: every event is a switch
/// into the fiber and back.
void BM_EngineYieldEvents(benchmark::State& state) {
  const std::int64_t yields = state.range(0);
  double events = 0;
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn("yielder", [yields] {
      for (std::int64_t i = 0; i < yields; ++i) sim::yield();
    });
    engine.run();
    events += static_cast<double>(engine.stats().events_fired);
  }
  state.counters["events"] = benchmark::Counter(events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineYieldEvents)->Arg(10000);

/// The setup path: one engine spawns one fiber, dispatches it once (which
/// starts its context) and lets it finish.
void BM_FiberSpawnFirstDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn("once", [] {});
    engine.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberSpawnFirstDispatch);

}  // namespace

BENCHMARK_MAIN();
