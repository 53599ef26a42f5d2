#include "sim/context.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif

#ifdef SIM_CONTEXT_ASM
// context_x86_64.S
extern "C" void sim_context_switch(void** save_sp, void* to_sp);
extern "C" void sim_context_entry();
#endif

namespace sim {

void Context::enter(Context* self) {
  self->arrived();
  self->entry_(self->arg_);
  std::abort();  // entry returned instead of leaving through finish()
}

#ifdef SIM_CONTEXT_ASM

// The first frame, laid out as sim_context_switch leaves a context: the FP
// control words, r15, r14, r13, r12, rbx, rbp, then the return address. The
// switch "returns" into sim_context_entry with rsp at the 16-byte aligned
// stack top, rbx = this and r12 = &enter.
void Context::start(Entry entry, void* arg, char* stack, std::size_t bytes) {
  entry_ = entry;
  arg_ = arg;
  const auto top =
      reinterpret_cast<std::uintptr_t>(stack + bytes) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<void**>(top) - 8;
  // The new context starts with the FP control of the thread that starts it.
  std::uint32_t fp_control[2] = {0, 0};
  asm("stmxcsr %0" : "=m"(fp_control[0]));
  asm("fnstcw %0" : "=m"(fp_control[1]));
  static_assert(sizeof fp_control == sizeof(void*));
  std::memcpy(&frame[0], fp_control, sizeof fp_control);
  frame[1] = nullptr;  // r15
  frame[2] = nullptr;  // r14
  frame[3] = nullptr;  // r13
  frame[4] = reinterpret_cast<void*>(&Context::enter);  // r12
  frame[5] = this;     // rbx
  frame[6] = nullptr;  // rbp
  frame[7] = reinterpret_cast<void*>(&sim_context_entry);
  sp_ = frame;
}

void Context::swap(Context& self, Context& to) {
  sim_context_switch(&self.sp_, to.sp_);
}

void Context::finish(Context& self, Context& to) {
  sim_context_switch(&self.sp_, to.sp_);
  std::abort();  // a finished context was resumed
}

void Context::arrived() {}

#else  // POSIX ucontext

#ifdef __SANITIZE_ADDRESS__
namespace {
thread_local Context* t_from = nullptr;  // the context the last switch left
}  // namespace
#endif

void Context::start(Entry entry, void* arg, char* stack, std::size_t bytes) {
  entry_ = entry;
  arg_ = arg;
  stack_ = stack;
  bytes_ = bytes;
  getcontext(&uc_);
  uc_.uc_stack.ss_sp = stack;
  uc_.uc_stack.ss_size = bytes;
  uc_.uc_link = nullptr;
  // makecontext passes int arguments only, so the pointer travels in halves.
  const auto p = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&uc_, reinterpret_cast<void (*)()>(&Context::trampoline), 2,
              static_cast<unsigned int>(p >> 32),
              static_cast<unsigned int>(p & 0xffffffffu));
}

void Context::trampoline(unsigned int hi, unsigned int lo) {
  enter(reinterpret_cast<Context*>((static_cast<std::uintptr_t>(hi) << 32) |
                                   static_cast<std::uintptr_t>(lo)));
}

void Context::swap(Context& self, Context& to) {
  jump(self, &self.fake_stack_, to);
  self.arrived();
}

void Context::finish(Context& self, Context& to) {
  jump(self, nullptr, to);
  std::abort();  // a finished context was resumed
}

// ASan hears of every switch: jump() names the stack the host thread moves
// to and keeps the leaving context's fake stack in `fake` (nullptr frees it:
// the context leaves for good); arrived() completes the switch and records
// the stack that was left, which is how the host thread's own stack becomes
// known.
void Context::jump(Context& self, [[maybe_unused]] void** fake, Context& to) {
#ifdef __SANITIZE_ADDRESS__
  t_from = &self;
  __sanitizer_start_switch_fiber(fake, to.stack_, to.bytes_);
#endif
  swapcontext(&self.uc_, &to.uc_);
}

void Context::arrived() {
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(fake_stack_, &t_from->stack_, &t_from->bytes_);
#endif
}

#endif  // SIM_CONTEXT_ASM

}  // namespace sim
