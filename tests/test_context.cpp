// sim::Context on its own, on whichever switch the build selects: the
// hand-written x86-64 one in plain builds, POSIX ucontext in sanitizer builds
// and on other architectures.
#include <execinfo.h>
#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/context.hpp"

namespace {

constexpr std::size_t kStack = 64 * 1024;

/// A context and the stack it runs on, plus the host context it returns to.
struct Task {
  sim::Context host;
  sim::Context ctx;
  std::unique_ptr<char[]> stack{new char[kStack]};

  void start(sim::Context::Entry entry, void* arg) {
    ctx.start(entry, arg, stack.get(), kStack);
  }
};

/// The address of `p`, hidden from the optimiser so it cannot assume the
/// alignment the declaration promises.
std::uintptr_t opaque(const void* p) {
  auto v = reinterpret_cast<std::uintptr_t>(p);
  asm volatile("" : "+r"(v));
  return v;
}

// ---------------------------------------------------------------- ring ----

constexpr std::size_t kRing = 8;
constexpr int kRounds = 50;

struct Ring {
  sim::Context host;
  std::array<sim::Context, kRing> ctx;
  std::vector<std::unique_ptr<char[]>> stacks;
  std::vector<std::size_t> log;
  std::array<std::uint64_t, kRing> result{};
};

struct Member {
  Ring* ring;
  std::size_t id;
};

/// What ring_member computes, without the swaps.
std::uint64_t ring_expected(std::size_t id) {
  std::uint64_t a = id + 1;
  std::uint64_t b = 3 * a;
  std::uint64_t c = a * a;
  double d = 0.5 * static_cast<double>(a);
  for (int round = 0; round < kRounds; ++round) {
    a += b;
    b ^= c;
    c = c * 31 + a;
    d = d * 1.5 + 1.0;
  }
  return a ^ b ^ c ^ static_cast<std::uint64_t>(d);
}

/// Each member hands over to the next one; the last hands back to the host.
void ring_member(void* arg) {
  const Member& m = *static_cast<Member*>(arg);
  Ring& r = *m.ring;
  const std::size_t id = m.id;
  sim::Context& self = r.ctx[id];
  sim::Context& next = id + 1 < kRing ? r.ctx[id + 1] : r.host;
  // Locals live across every swap, in callee-saved registers or on the stack.
  std::uint64_t a = id + 1;
  std::uint64_t b = 3 * a;
  std::uint64_t c = a * a;
  double d = 0.5 * static_cast<double>(a);
  for (int round = 0; round < kRounds; ++round) {
    r.log.push_back(id);
    a += b;
    b ^= c;
    c = c * 31 + a;
    d = d * 1.5 + 1.0;
    sim::Context::swap(self, next);
  }
  r.result[id] = a ^ b ^ c ^ static_cast<std::uint64_t>(d);
  sim::Context::finish(self, next);
}

TEST(Context, RoundRobinOverEightContextsKeepsTheirLocals) {
  Ring r;
  std::array<Member, kRing> members{};
  for (std::size_t i = 0; i < kRing; ++i) {
    members[i] = Member{&r, i};
    r.stacks.emplace_back(new char[kStack]);
    r.ctx[i].start(&ring_member, &members[i], r.stacks.back().get(), kStack);
  }
  for (int round = 0; round < kRounds; ++round) sim::Context::swap(r.host, r.ctx[0]);
  sim::Context::swap(r.host, r.ctx[0]);  // each member finishes into the next

  ASSERT_EQ(r.log.size(), kRing * kRounds);
  for (std::size_t i = 0; i < r.log.size(); ++i) {
    ASSERT_EQ(r.log[i], i % kRing) << "at " << i;
  }
  for (std::size_t i = 0; i < kRing; ++i) {
    EXPECT_EQ(r.result[i], ring_expected(i)) << "member " << i;
  }
}

// ------------------------------------------------------------ rounding ----

struct FpTask : Task {
  int at_entry = -1;
  int after_swap = -1;
  double third = 0;
};

void fp_body(void* arg) {
  auto& t = *static_cast<FpTask*>(arg);
  t.at_entry = std::fegetround();
  std::fesetround(FE_UPWARD);
  sim::Context::swap(t.ctx, t.host);
  t.after_swap = std::fegetround();
  volatile double one = 1.0;
  volatile double three = 3.0;
  t.third = one / three;
  sim::Context::finish(t.ctx, t.host);
}

TEST(Context, RoundingModeStaysWithItsContext) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  FpTask t;
  std::fesetround(FE_DOWNWARD);
  t.start(&fp_body, &t);  // a context starts with the FP control of its starter
  std::fesetround(FE_TONEAREST);

  sim::Context::swap(t.host, t.ctx);
  EXPECT_EQ(t.at_entry, FE_DOWNWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST) << "the context's FE_UPWARD leaked out";

  sim::Context::swap(t.host, t.ctx);
  EXPECT_EQ(t.after_swap, FE_UPWARD) << "the context's FE_UPWARD was lost";
  volatile double one = 1.0;
  volatile double three = 3.0;
  EXPECT_GT(t.third, one / three);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// ----------------------------------------------------------- alignment ----

struct AlignTask : Task {
  int checks = 0;
  int misaligned = 0;
};

void count_misaligned(AlignTask& t, const void* p, std::uintptr_t align) {
  t.checks += 1;
  if (opaque(p) % align != 0) t.misaligned += 1;
}

// Separate frames: a 32-byte aligned local makes the compiler realign its
// whole frame, which would hide a misaligned stack from the 16-byte check.
[[gnu::noinline]] void check_fresh_frame16(AlignTask& t) {
  alignas(16) unsigned char a16[16] = {};
  count_misaligned(t, a16, 16);
}

[[gnu::noinline]] void check_fresh_frame32(AlignTask& t) {
  alignas(32) unsigned char a32[32] = {};
  count_misaligned(t, a32, 32);
}

void align_body(void* arg) {
  auto& t = *static_cast<AlignTask*>(arg);
  alignas(16) unsigned char a16[16] = {};
  for (int i = 0; i < 4; ++i) {
    if (i > 0) sim::Context::swap(t.ctx, t.host);
    count_misaligned(t, a16, 16);
    check_fresh_frame16(t);
    check_fresh_frame32(t);
  }
  sim::Context::finish(t.ctx, t.host);
}

TEST(Context, AlignedLocalsStayAlignedAcrossSwaps) {
  AlignTask t;
  t.start(&align_body, &t);
  for (int i = 0; i < 4; ++i) sim::Context::swap(t.host, t.ctx);
  EXPECT_EQ(t.checks, 12);
  EXPECT_EQ(t.misaligned, 0);
}

// ----------------------------------------------------------- exception ----

struct ThrowTask : Task {
  std::string caught;
  int swaps_after_catch = 0;
};

[[gnu::noinline]] void throw_from(int depth) {
  if (depth == 0) throw std::runtime_error("thrown on the context stack");
  throw_from(depth - 1);
}

void throw_body(void* arg) {
  auto& t = *static_cast<ThrowTask*>(arg);
  for (int i = 0; i < 3; ++i) sim::Context::swap(t.ctx, t.host);
  try {
    throw_from(4);
  } catch (const std::runtime_error& e) {
    t.caught = e.what();
  }
  sim::Context::swap(t.ctx, t.host);
  t.swaps_after_catch += 1;
  sim::Context::finish(t.ctx, t.host);
}

TEST(Context, ExceptionIsCaughtInsideTheContextAfterSwaps) {
  ThrowTask t;
  t.start(&throw_body, &t);
  for (int i = 0; i < 4; ++i) sim::Context::swap(t.host, t.ctx);
  EXPECT_EQ(t.caught, "thrown on the context stack");
  sim::Context::swap(t.host, t.ctx);
  EXPECT_EQ(t.swaps_after_catch, 1);
}

// ----------------------------------------------------------- backtrace ----

constexpr int kMaxFrames = 64;

struct TraceTask : Task {
  std::array<int, 2> depth{};
};

[[gnu::noinline]] int backtrace_depth() {
  std::array<void*, kMaxFrames> frames{};
  return backtrace(frames.data(), kMaxFrames);
}

void trace_body(void* arg) {
  auto& t = *static_cast<TraceTask*>(arg);
  t.depth[0] = backtrace_depth();
  sim::Context::swap(t.ctx, t.host);
  t.depth[1] = backtrace_depth();
  sim::Context::finish(t.ctx, t.host);
}

TEST(Context, BacktraceEndsAtTheContextEntry) {
  TraceTask t;
  t.start(&trace_body, &t);
  sim::Context::swap(t.host, t.ctx);
  sim::Context::swap(t.host, t.ctx);
  for (const int d : t.depth) {
    EXPECT_GT(d, 0);
    EXPECT_LT(d, kMaxFrames) << "the unwinder ran past the context's first frame";
  }
}

// -------------------------------------------------------------- finish ----

struct FinishTask : Task {
  bool ran = false;
};

void finish_body(void* arg) {
  auto& t = *static_cast<FinishTask*>(arg);
  t.ran = true;
  sim::Context::finish(t.ctx, t.host);
}

TEST(ContextDeathTest, FinishNeverComesBack) {
  FinishTask t;
  t.start(&finish_body, &t);
  EXPECT_TRUE(t.ctx.started());
  sim::Context::swap(t.host, t.ctx);
  EXPECT_TRUE(t.ran);
  // Resuming a finished context aborts instead of returning from finish().
  EXPECT_DEATH(sim::Context::swap(t.host, t.ctx), "");
}

}  // namespace
