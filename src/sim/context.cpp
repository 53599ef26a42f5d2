#include "sim/context.hpp"

#include <cstdint>
#include <cstdlib>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif

namespace sim {

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
  auto* self = reinterpret_cast<Context*>((static_cast<std::uintptr_t>(hi) << 32) |
                                          static_cast<std::uintptr_t>(lo));
  self->arrived();
  self->entry_(self->arg_);
  std::abort();  // entry returned instead of leaving through finish()
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

}  // namespace sim
