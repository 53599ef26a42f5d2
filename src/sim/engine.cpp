#include "sim/engine.hpp"

#include <cassert>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "san/san.hpp"
#include "trace/tracer.hpp"

namespace sim {

namespace {
thread_local Engine* g_current_engine = nullptr;
constexpr std::size_t kDefaultStackBytes = 128 * 1024;
}  // namespace

std::string Time::str() const {
  char buf[64];
  if (ns_ >= 1000000000) {
    std::snprintf(buf, sizeof buf, "%.3fs", sec());
  } else if (ns_ >= 1000000) {
    std::snprintf(buf, sizeof buf, "%.3fms", ms());
  } else if (ns_ >= 1000) {
    std::snprintf(buf, sizeof buf, "%.3fus", us());
  } else {
    std::snprintf(buf, sizeof buf, "%ldns", static_cast<long>(ns_));
  }
  return buf;
}

// ---------------------------------------------------------------- Fiber ----

Fiber::Fiber(Engine* engine, std::uint64_t id, std::string name, Body body,
             std::size_t stack_bytes)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes) {}

Fiber::~Fiber() = default;

void Fiber::run(void* self) {
  auto* f = static_cast<Fiber*>(self);
  try {
    f->body_();
  } catch (...) {
    f->engine_->capture_exception(std::current_exception());
  }
  f->state_ = FiberState::kDone;
  Context::finish(f->ctx_, f->engine_->scheduler_ctx_);
}

// --------------------------------------------------------------- Engine ----

Engine::Engine() = default;
Engine::~Engine() = default;

Engine* Engine::current() { return g_current_engine; }

Fiber& Engine::spawn(std::string name, Fiber::Body body) {
  return spawn_at(now_, std::move(name), std::move(body));
}

Fiber& Engine::spawn_at(Time start, std::string name, Fiber::Body body) {
  fibers_.push_back(std::make_unique<Fiber>(this, fibers_.size(),
                                            std::move(name), std::move(body),
                                            kDefaultStackBytes));
  ++stats_.fibers_spawned;
  Fiber& f = *fibers_.back();
  san::on_fork(f.id() + 1, f.name().c_str());
  schedule_fiber(f, start);
  return f;
}

void Engine::call_at(Time when, std::function<void()> fn) {
  assert(when >= now_ && "scheduling into the past");
  san::event_post(next_seq_);  // snapshot the poster's clock under this seq
  events_.push(Event{when, next_seq_++, nullptr, 0, std::move(fn)});
}

void Engine::call_after(Time delay, std::function<void()> fn) {
  call_at(now_ + delay, std::move(fn));
}

void Engine::schedule_fiber(Fiber& f, Time when) {
  assert(when >= now_ && "scheduling into the past");
  f.state_ = FiberState::kRunnable;
  f.sched_gen_ += 1;
  events_.push(Event{when, next_seq_++, &f, f.sched_gen_, nullptr});
}

void Engine::advance(Time dt) {
  Fiber* f = current_fiber_;
  assert(f != nullptr && "advance() called outside a fiber");
  assert(dt >= Time::zero() && "negative advance");
  if (trace::Tracer::on() && dt > Time::zero()) {
    // The fiber occupies its simulated core for [now, now+dt): one complete
    // slice on the fiber's track ("where does the CPU time go").
    trace::Tracer::instance().complete(now_.ns(), dt.ns(), f->trace_pid(),
                                       f->id() + 1, "cpu", "sim");
  }
  schedule_fiber(*f, now_ + dt);
  Context::swap(f->ctx_, scheduler_ctx_);
}

void Engine::yield() { advance(Time::zero()); }

void Engine::block() {
  Fiber* f = current_fiber_;
  assert(f != nullptr && "block() called outside a fiber");
  f->state_ = FiberState::kBlocked;
  Context::swap(f->ctx_, scheduler_ctx_);
}

void Engine::unblock(Fiber& f, Time delay) {
  if (f.state_ != FiberState::kBlocked) return;
  san::on_wake(f.id() + 1);  // the waker's history reaches the woken fiber
  schedule_fiber(f, now_ + delay);
}

void Engine::dispatch(Event& ev) {
  now_ = ev.when;
  ++stats_.events_fired;
  if (ev.fiber != nullptr) {
    Fiber& f = *ev.fiber;
    // A fiber may have been re-scheduled and then blocked again before this
    // event fires; only resume if it is still runnable for this event.
    if (f.state_ != FiberState::kRunnable || f.sched_gen_ != ev.fiber_gen) {
      return;
    }
    current_fiber_ = &f;
    ++stats_.context_switches;
    if (trace::Tracer::on()) {
      trace::Tracer::instance().instant(now_.ns(), f.trace_pid(), f.id() + 1,
                                        "ctx", "sim");
    }
    san::on_switch(f.id() + 1, f.name().c_str(), now_.ns());
    if (!f.ctx_.started()) {
      f.ctx_.start(&Fiber::run, &f, f.stack_.get(), f.stack_bytes_);
    }
    f.state_ = FiberState::kRunning;
    Context::swap(scheduler_ctx_, f.ctx_);
    current_fiber_ = nullptr;
  } else {
    san::event_fire(ev.seq, now_.ns());
    ev.fn();
  }
}

Time Engine::run() { return run_until(Time::max()); }

Time Engine::run_until(Time deadline) {
  if (running_) throw std::logic_error("Engine::run is not reentrant");
  running_ = true;
  Engine* prev = g_current_engine;
  g_current_engine = this;
  while (!events_.empty()) {
    if (events_.top().when > deadline) break;
    // priority_queue::top is const; move out via const_cast, standard trick.
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    dispatch(ev);
  }
  g_current_engine = prev;
  running_ = false;
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
  return now_;
}

void Engine::capture_exception(std::exception_ptr e) {
  if (!first_error_) first_error_ = std::move(e);
}

bool Engine::all_fibers_done() const {
  for (const auto& f : fibers_) {
    if (!f->done()) return false;
  }
  return true;
}

std::vector<std::string> Engine::unfinished_fibers() const {
  std::vector<std::string> out;
  for (const auto& f : fibers_) {
    if (!f->done()) out.push_back(f->name());
  }
  return out;
}

}  // namespace sim
