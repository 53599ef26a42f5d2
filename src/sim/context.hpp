// The one stack-switching primitive: the simulator's fibers (sim::Engine)
// and the model checker's threads (chk::Checker) both run on it.
//
// A Context is either started, running `entry(arg)` on a stack its caller
// owns from the first swap into it, or the host thread's own context, which
// is filled in by the first swap away from it.
//
// Two implementations, chosen at compile time. On x86-64 a hand-written
// switch (context_x86_64.S) saves the callee-saved registers, MXCSR and the
// x87 control word on the leaving stack and keeps only the stack pointer
// here: no system call per switch. Sanitizer builds (__SANITIZE_ADDRESS__,
// __SANITIZE_THREAD__) and other architectures use POSIX ucontext; the ASan
// build announces every switch to ASan, so exceptions thrown on a fiber
// stack unwind cleanly.
#pragma once

#include <cstddef>

#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#define SIM_CONTEXT_ASM 1
#else
#include <ucontext.h>
#endif

namespace sim {

class Context {
 public:
  using Entry = void (*)(void* arg);

  Context() = default;
  Context(const Context&) = delete;  // a started context is found by address
  Context& operator=(const Context&) = delete;

  /// Make this context run `entry(arg)` on [stack, stack + bytes) once it is
  /// swapped into. `entry` must leave through finish(), never return.
  void start(Entry entry, void* arg, char* stack, std::size_t bytes);
  [[nodiscard]] bool started() const { return entry_ != nullptr; }

  /// Save the running context into `self` and resume `to`. Returns when
  /// another context swaps back into `self`.
  static void swap(Context& self, Context& to);
  /// Leave `self` for good and resume `to`; `self` is never resumed.
  [[noreturn]] static void finish(Context& self, Context& to);

 private:
  /// First code on a started context's stack: arrived(), then entry(arg).
  [[noreturn]] static void enter(Context* self);
  void arrived();

  Entry entry_ = nullptr;
  void* arg_ = nullptr;
#ifdef SIM_CONTEXT_ASM
  void* sp_ = nullptr;  // saved stack pointer while this context is out
#else
  static void trampoline(unsigned int hi, unsigned int lo);
  static void jump(Context& self, void** fake, Context& to);

  ucontext_t uc_{};
  // For ASan: the stack this context runs on and its fake stack while out.
  const void* stack_ = nullptr;
  std::size_t bytes_ = 0;
  void* fake_stack_ = nullptr;
#endif
};

}  // namespace sim
