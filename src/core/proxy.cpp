#include "core/proxy.hpp"

#include <algorithm>
#include <stdexcept>

#include "mpi/cluster.hpp"
#include "san/san.hpp"
#include "trace/scope.hpp"

namespace core {

const char* approach_name(Approach a) {
  switch (a) {
    case Approach::kBaseline:
      return "baseline";
    case Approach::kIprobe:
      return "iprobe";
    case Approach::kCommSelf:
      return "comm-self";
    case Approach::kOffload:
      return "offload";
  }
  return "?";
}

Approach approach_from_string(const std::string& s) {
  if (s == "baseline") return Approach::kBaseline;
  if (s == "iprobe") return Approach::kIprobe;
  if (s == "commself" || s == "comm-self") return Approach::kCommSelf;
  if (s == "offload") return Approach::kOffload;
  throw std::invalid_argument(
      "unknown approach: '" + s +
      "' (valid: baseline, iprobe, comm-self (or commself), offload)");
}

smpi::ThreadLevel required_thread_level(Approach a) {
  // comm-self needs concurrent MPI calls (progress thread + master); the
  // others drive MPI from a single thread.
  return a == Approach::kCommSelf ? smpi::ThreadLevel::kMultiple
                                  : smpi::ThreadLevel::kFunneled;
}

// ------------------------------------------------------- default blocking ----

void Proxy::send(const void* b, std::size_t n, smpi::Datatype dt, int dst,
                 int tag, smpi::Comm c) {
  PReq r = isend(b, n, dt, dst, tag, c);
  wait(r);
}

void Proxy::recv(void* b, std::size_t n, smpi::Datatype dt, int src, int tag,
                 smpi::Comm c, smpi::Status* st) {
  PReq r = irecv(b, n, dt, src, tag, c);
  wait(r, st);
}

void Proxy::post_batch(std::span<const BatchOp> ops, std::span<PReq> out) {
  // The whole group is checked before any of it is posted, so a bad op can
  // never leave a prefix on the wire (how long a prefix would otherwise
  // depend on the approach and its flush threshold).
  if (ops.size() != out.size()) {
    throw std::invalid_argument("post_batch: ops/out span size mismatch");
  }
  for (const BatchOp& o : ops) {
    if (o.op != CmdOp::kIsend && o.op != CmdOp::kIrecv &&
        o.op != CmdOp::kStartPersistent) {
      throw std::invalid_argument(
          "post_batch: only isend/irecv/start ops batch");
    }
  }
  backend_post_batch(ops, out);
}

void Proxy::backend_post_batch(std::span<const BatchOp> ops,
                               std::span<PReq> out) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const BatchOp& o = ops[i];
    if (o.op == CmdOp::kIsend) {
      out[i] = isend(o.sbuf, o.count, o.dtype, o.peer, o.tag, o.comm);
    } else if (o.op == CmdOp::kIrecv) {
      out[i] = irecv(o.rbuf, o.count, o.dtype, o.peer, o.tag, o.comm);
    } else {
      PersistentReq pr{o.persist};
      start(pr);
      out[i] = PReq{};  // completion goes through the persistent handle
    }
  }
}

void Proxy::barrier(smpi::Comm c) {
  PReq r = ibarrier(c);
  wait(r);
}

void Proxy::bcast(void* b, std::size_t n, smpi::Datatype dt, int root,
                  smpi::Comm c) {
  PReq r = ibcast(b, n, dt, root, c);
  wait(r);
}

void Proxy::reduce(const void* s, void* r, std::size_t n, smpi::Datatype dt,
                   smpi::Op op, int root, smpi::Comm c) {
  PReq rq = ireduce(s, r, n, dt, op, root, c);
  wait(rq);
}

void Proxy::allreduce(const void* s, void* r, std::size_t n, smpi::Datatype dt,
                      smpi::Op op, smpi::Comm c) {
  PReq rq = iallreduce(s, r, n, dt, op, c);
  wait(rq);
}

void Proxy::alltoall(const void* s, void* r, std::size_t n_per,
                     smpi::Datatype dt, smpi::Comm c) {
  PReq rq = ialltoall(s, r, n_per, dt, c);
  wait(rq);
}

void Proxy::allgather(const void* s, void* r, std::size_t n_per,
                      smpi::Datatype dt, smpi::Comm c) {
  PReq rq = iallgather(s, r, n_per, dt, c);
  wait(rq);
}

// ------------------------------------------------ persistent front end ----
// The one meaning of a persistent request, whatever approach is underneath:
// state, legality checks and the whole-message Status live here; the
// backend hooks only move data.

namespace {
[[noreturn]] void persist_misuse(int rank, const char* call,
                                 const char* what) {
  san::mpi_persist_misuse(rank, call, what);
  throw std::logic_error(std::string(call) + ": " + what);
}

void validate_partitioned(int rank, const char* call, int tag,
                          std::uint32_t partitions, int peer) {
  if (partitions == 0 ||
      partitions > static_cast<std::uint32_t>(smpi::kMaxPartitions)) {
    persist_misuse(rank, call, "partition count out of range");
  }
  if (tag < 0 || tag >= smpi::kMaxPartBaseTag) {
    persist_misuse(rank, call, "partitioned base tag out of range");
  }
  if (peer == smpi::kAnySource) {
    // Partition frames are invisible to wildcard matching by design
    // (mpi/matching.cpp); a wildcard partitioned receive would never match.
    persist_misuse(rank, call, "partitioned ops require a specific peer");
  }
}

/// A data-carrying command (`peer` is the destination, source, root or RMA
/// target): every one-shot op that moves data, and the envelope every
/// backend registers a persistent request from.
Command envelope(CmdOp op, const void* sbuf, void* rbuf, std::size_t n,
                 smpi::Datatype dt, int peer, int tag, smpi::Comm c) {
  Command cmd;
  cmd.op = op;
  cmd.sbuf = sbuf;
  cmd.rbuf = rbuf;
  cmd.count = n;
  cmd.dtype = dt;
  cmd.peer = peer;
  cmd.tag = tag;
  cmd.comm = c;
  return cmd;
}
}  // namespace

Proxy::PersistentOp& Proxy::pop_of(const PersistentReq& r, const char* call) {
  if (r.is_null() || r.v > pops_.size()) {
    throw std::logic_error(std::string(call) +
                           ": null or invalid persistent request handle");
  }
  return pops_[static_cast<std::size_t>(r.v - 1)];
}

PersistentReq Proxy::persist_register(const Command& env,
                                      std::uint32_t partitions) {
  PersistentOp op;
  op.is_send = env.op == CmdOp::kIsend;
  op.partitions = partitions;
  op.peer = env.peer;
  op.tag = env.tag;
  op.bytes = env.count * smpi::datatype_size(env.dtype);
  op.marked.assign(partitions, false);
  op.backend = backend_init(env, partitions);
  pops_.push_back(std::move(op));
  return PersistentReq{pops_.size()};
}

PersistentReq Proxy::send_init(const void* b, std::size_t n, smpi::Datatype dt,
                               int dst, int tag, smpi::Comm c) {
  return persist_register(
      envelope(CmdOp::kIsend, b, nullptr, n, dt, dst, tag, c), 0);
}

PersistentReq Proxy::recv_init(void* b, std::size_t n, smpi::Datatype dt,
                               int src, int tag, smpi::Comm c) {
  return persist_register(
      envelope(CmdOp::kIrecv, nullptr, b, n, dt, src, tag, c), 0);
}

PersistentReq Proxy::psend_init(const void* b, std::size_t n,
                                smpi::Datatype dt, int dst, int tag,
                                std::uint32_t partitions, smpi::Comm c) {
  validate_partitioned(rc_.rank(), "psend_init", tag, partitions, dst);
  return persist_register(
      envelope(CmdOp::kIsend, b, nullptr, n, dt, dst, tag, c), partitions);
}

PersistentReq Proxy::precv_init(void* b, std::size_t n, smpi::Datatype dt,
                                int src, int tag, std::uint32_t partitions,
                                smpi::Comm c) {
  validate_partitioned(rc_.rank(), "precv_init", tag, partitions, src);
  return persist_register(
      envelope(CmdOp::kIrecv, nullptr, b, n, dt, src, tag, c), partitions);
}

void Proxy::start(PersistentReq& r) {
  PersistentOp& op = pop_of(r, "start");
  if (op.state == PState::kFreed) {
    persist_misuse(rc_.rank(), "start", "request was freed");
  }
  if (op.state == PState::kStarted) {
    persist_misuse(rc_.rank(), "start", "previous generation still in flight");
  }
  op.state = PState::kStarted;
  op.marked.assign(op.partitions, false);
  op.marked_count = 0;
  backend_arm(op);
}

void Proxy::startall(std::span<PersistentReq> rs) {
  if (rs.empty()) return;  // MPI_Startall(0, ...) is a no-op
  for (PersistentReq& r : rs) start(r);
}

void Proxy::mark_ready(PersistentReq& r, std::uint32_t lo, std::uint32_t hi,
                       const char* call) {
  PersistentOp& op = pop_of(r, call);
  if (!op.is_send || op.partitions == 0) {
    persist_misuse(rc_.rank(), call, "request is not a partitioned send");
  }
  if (op.state != PState::kStarted) {
    persist_misuse(rc_.rank(), call, "no generation started");
  }
  if (lo > hi) persist_misuse(rc_.rank(), call, "partition range is empty");
  if (hi >= op.partitions) {
    persist_misuse(rc_.rank(), call, "partition out of range");
  }
  for (std::uint32_t p = lo; p <= hi; ++p) {
    if (op.marked[p]) {
      persist_misuse(rc_.rank(), call,
                     "partition marked ready twice in one generation");
    }
  }
  // Marks land before the hand-off (which yields), so a racing pready of the
  // same partition is rejected; the count follows it, so a wait never sees a
  // generation whose partitions have not all been handed on.
  for (std::uint32_t p = lo; p <= hi; ++p) op.marked[p] = true;
  backend_ship(op, lo, hi);
  op.marked_count += hi - lo + 1;
}

void Proxy::pready(PersistentReq& r, std::uint32_t p) {
  mark_ready(r, p, p, "pready");
}

void Proxy::pready_range(PersistentReq& r, std::uint32_t lo,
                         std::uint32_t hi) {
  mark_ready(r, lo, hi, "pready_range");
}

bool Proxy::complete(PersistentOp& op, bool block, smpi::Status* st) {
  smpi::Status raw;
  if (!backend_complete(op, block, &raw)) return false;
  op.state = PState::kInactive;
  if (st != nullptr) *st = op.whole_message(raw);
  return true;
}

void Proxy::wait(PersistentReq& r, smpi::Status* st) {
  PersistentOp& op = pop_of(r, "wait");
  if (op.state == PState::kFreed) {
    persist_misuse(rc_.rank(), "wait", "request was freed");
  }
  if (op.state == PState::kInactive) {
    if (st != nullptr) *st = smpi::Status{};
    return;  // trivially complete, like MPI_Wait on an inactive request
  }
  if (op.unmarked()) {
    persist_misuse(rc_.rank(), "wait",
                   "wait with unmarked partitions (the send can never "
                   "complete; pready every partition first)");
  }
  complete(op, true, st);
}

bool Proxy::test(PersistentReq& r, smpi::Status* st) {
  PersistentOp& op = pop_of(r, "test");
  if (op.state == PState::kFreed) {
    persist_misuse(rc_.rank(), "test", "request was freed");
  }
  if (op.state == PState::kInactive) {
    if (st != nullptr) *st = smpi::Status{};
    return true;
  }
  // A partitioned send with unmarked partitions is simply not complete yet.
  if (op.unmarked()) return false;
  return complete(op, false, st);
}

void Proxy::request_free(PersistentReq& r) {
  if (r.is_null()) return;
  PersistentOp& op = pop_of(r, "request_free");
  if (op.state == PState::kStarted) {
    persist_misuse(rc_.rank(), "request_free", "generation still in flight");
  }
  if (op.state != PState::kFreed) {
    op.state = PState::kFreed;
    backend_free(op);
  }
  r = PersistentReq{};
}

void Proxy::attach_continuation(PersistentReq& r, ContFn fn) {
  PersistentOp& op = pop_of(r, "attach_continuation");
  if (op.state != PState::kStarted) {
    persist_misuse(rc_.rank(), "attach_continuation",
                   "no generation started on this persistent request");
  }
  if (op.unmarked()) {
    // An unmarked partition would never ship — the continuation could never
    // fire.
    persist_misuse(rc_.rank(), "attach_continuation",
                   "attach with unmarked partitions (pready every partition "
                   "first)");
  }
  PersistentOp* p = &op;  // stable: pops_ is a deque
  backend_attach(op, [p, f = std::move(fn)](const smpi::Status& st) {
    // Consumed first: the callback observes kInactive and may start() the
    // next generation from inside itself.
    p->state = PState::kInactive;
    f(p->whole_message(st));
  });
}

// ---------------------------------------------------- one-shot front end ----
// Every one-shot MPI op is built here, once, as a Command; backend_submit
// issues it on the approach underneath.

PReq Proxy::isend(const void* b, std::size_t n, smpi::Datatype dt, int dst,
                  int tag, smpi::Comm c) {
  return backend_submit(
      envelope(CmdOp::kIsend, b, nullptr, n, dt, dst, tag, c));
}
PReq Proxy::irecv(void* b, std::size_t n, smpi::Datatype dt, int src, int tag,
                  smpi::Comm c) {
  return backend_submit(
      envelope(CmdOp::kIrecv, nullptr, b, n, dt, src, tag, c));
}
PReq Proxy::ibarrier(smpi::Comm c) {
  return backend_submit({.op = CmdOp::kIbarrier, .comm = c});
}
PReq Proxy::ibcast(void* b, std::size_t n, smpi::Datatype dt, int root,
                   smpi::Comm c) {
  return backend_submit(
      envelope(CmdOp::kIbcast, nullptr, b, n, dt, root, 0, c));
}
PReq Proxy::ireduce(const void* s, void* r, std::size_t n, smpi::Datatype dt,
                    smpi::Op op, int root, smpi::Comm c) {
  Command cmd = envelope(CmdOp::kIreduce, s, r, n, dt, root, 0, c);
  cmd.rop = op;
  return backend_submit(cmd);
}
PReq Proxy::iallreduce(const void* s, void* r, std::size_t n,
                       smpi::Datatype dt, smpi::Op op, smpi::Comm c) {
  Command cmd = envelope(CmdOp::kIallreduce, s, r, n, dt, -1, 0, c);
  cmd.rop = op;
  return backend_submit(cmd);
}
PReq Proxy::ialltoall(const void* s, void* r, std::size_t n_per,
                      smpi::Datatype dt, smpi::Comm c) {
  return backend_submit(envelope(CmdOp::kIalltoall, s, r, n_per, dt, -1, 0, c));
}
PReq Proxy::iallgather(const void* s, void* r, std::size_t n_per,
                       smpi::Datatype dt, smpi::Comm c) {
  return backend_submit(
      envelope(CmdOp::kIallgather, s, r, n_per, dt, -1, 0, c));
}

void Proxy::submit_and_wait(const Command& cmd) {
  // A null handle is never waited on: a direct wait would still enter MPI
  // and pay its entry cost.
  PReq r = backend_submit(cmd);
  if (!r.is_null()) wait(r);
}

smpi::Win Proxy::win_create(void* base, std::size_t bytes, smpi::Comm c) {
  Command cmd = envelope(CmdOp::kWinCreate, nullptr, base, bytes,
                         smpi::Datatype::kByte, -1, 0, c);
  smpi::Win out;
  cmd.win_out = &out;
  submit_and_wait(cmd);
  return out;
}
void Proxy::win_free(smpi::Win w) {
  submit_and_wait({.op = CmdOp::kWinFree, .win = w});
}
void Proxy::put(const void* origin, std::size_t bytes, int target,
                std::size_t target_offset, smpi::Win w) {
  // Fire-and-forget at the MPI level: the op completes as soon as the put is
  // injected; remote completion is the fence's job.
  Command cmd = envelope(CmdOp::kPut, origin, nullptr, bytes,
                         smpi::Datatype::kByte, target, 0, smpi::kCommWorld);
  cmd.win = w;
  cmd.offset = target_offset;
  submit_and_wait(cmd);
}
void Proxy::get(void* origin, std::size_t bytes, int target,
                std::size_t target_offset, smpi::Win w) {
  Command cmd = envelope(CmdOp::kGet, nullptr, origin, bytes,
                         smpi::Datatype::kByte, target, 0, smpi::kCommWorld);
  cmd.win = w;
  cmd.offset = target_offset;
  submit_and_wait(cmd);
}
void Proxy::fence(smpi::Win w) {
  submit_and_wait({.op = CmdOp::kIfence, .win = w});
}

// ------------------------------------------------------------ DirectProxy ----

namespace {
PReq wrap(smpi::Request r) { return PReq{static_cast<std::uint64_t>(r.idx)}; }
smpi::Request unwrap(PReq r) { return smpi::Request{static_cast<int>(r.v)}; }

/// Run `f` on the rc_-level requests behind `rs`, then write them back
/// (completion nulls the entries it releases).
template <typename F>
auto on_requests(std::span<PReq> rs, F f) {
  std::vector<smpi::Request> reqs(rs.size());
  std::transform(rs.begin(), rs.end(), reqs.begin(), unwrap);
  const auto result = f(std::span<smpi::Request>(reqs));
  std::transform(reqs.begin(), reqs.end(), rs.begin(), wrap);
  return result;
}
}  // namespace

PReq DirectProxy::backend_submit(const Command& cmd) {
  return wrap(issue_call(rc_, cmd));
}
void DirectProxy::wait(PReq& r, smpi::Status* st) {
  smpi::Request rq = unwrap(r);
  rc_.wait(rq, st);
  r = wrap(rq);
}
bool DirectProxy::test(PReq& r, smpi::Status* st) {
  smpi::Request rq = unwrap(r);
  const bool done = rc_.test(rq, st);
  r = wrap(rq);
  return done;
}
void DirectProxy::waitall(std::span<PReq> rs) {
  if (rs.empty()) return;  // MPI_Waitall(0, ...) is a no-op
  on_requests(rs, [&](std::span<smpi::Request> q) {
    rc_.waitall(q);
    return true;
  });
}
int DirectProxy::waitany(std::span<PReq> rs, smpi::Status* st) {
  if (rs.empty()) return -1;  // MPI_UNDEFINED for an empty list
  return on_requests(
      rs, [&](std::span<smpi::Request> q) { return rc_.waitany(q, st); });
}
bool DirectProxy::testall(std::span<PReq> rs) {
  if (rs.empty()) return true;  // MPI_Testall(0, ...) sets flag = true
  return on_requests(
      rs, [&](std::span<smpi::Request> q) { return rc_.testall(q); });
}

void DirectProxy::attach_continuation(PReq& r, ContFn fn) {
  if (r.is_null()) {
    // Already-released handle: the continuation analogue of "waiting twice
    // is safe" — treat it as complete and run inline with an empty Status.
    fn(smpi::Status{});
    return;
  }
  armed_.push_back({unwrap(r), std::move(fn)});
  r = PReq{};
  // A request that already completed fires right here, not at the next
  // progress call — but arming must stay cheap (one test of THIS request,
  // not a pump over everything armed, or when_all's post phase turns into
  // a quadratic app-thread scan).
  if (pumping_) return;  // the in-progress pump's scan reaches appendees
  smpi::Status st;
  if (rc_.test(armed_.back().req, &st)) {
    ContFn f = std::move(armed_.back().fn);
    armed_.pop_back();
    trace::Scope tsc("cont:run", approach_name(approach()));
    f(st);
  }
}

void DirectProxy::pump_continuations() {
  if (pumping_ || armed_.empty()) return;
  pumping_ = true;  // callbacks re-enter via attach/test; they only append
  std::size_t i = 0;
  while (i < armed_.size()) {
    smpi::Status st;
    smpi::Request rq = armed_[i].req;
    if (!rc_.test(rq, &st)) {
      ++i;
      continue;
    }
    // Retire the entry BEFORE running the callback: fn may grow armed_
    // (posting follow-ups) and must not observe its own dead entry.
    ContFn fn = std::move(armed_[i].fn);
    armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(i));
    trace::Scope tsc("cont:run", approach_name(approach()));
    fn(st);
    // No ++i: erase shifted the next candidate into position i.
  }
  pumping_ = false;
}

void DirectProxy::cont_wait(const std::function<bool()>& done) {
  trace::Scope tsc("cont:wait", approach_name(approach()));
  pump_continuations();
  // Exponential backoff between pumps: direct proxies have no engine fiber
  // to wake us precisely, so poll the progress path, sleeping on the rank's
  // arrival doorbell between polls.
  sim::Time backoff = sim::Time::from_us(1);
  while (!done()) {
    const std::uint64_t seen = rc_.arrivals().count();
    rc_.progress();
    pump_continuations();
    if (done()) break;
    rc_.arrivals().wait_beyond_timeout(seen, backoff);
    if (backoff.ns() < 100'000) backoff = sim::Time(backoff.ns() * 2);
  }
}

std::uint32_t DirectProxy::backend_init(const Command& env,
                                        std::uint32_t partitions) {
  pmpi_.push_back(PersistentMpi::create(rc_, env, partitions));
  return static_cast<std::uint32_t>(pmpi_.size() - 1);
}

void DirectProxy::backend_arm(const PersistentOp& op) {
  PersistentMpi& pm = pmpi_[op.backend];
  if (op.partitions == 0) {
    rc_.start(pm.req);
  } else if (!op.is_send) {
    // A receive posts every partition now (it has no readiness to wait
    // for); a send ships each partition as it is marked.
    rc_.startall(pm.parts);
  }
}

void DirectProxy::backend_ship(const PersistentOp& op, std::uint32_t lo,
                               std::uint32_t hi) {
  PersistentMpi& pm = pmpi_[op.backend];
  for (std::uint32_t p = lo; p <= hi; ++p) rc_.start(pm.parts[p]);
}

bool DirectProxy::backend_complete(const PersistentOp& op, bool block,
                                   smpi::Status* st) {
  PersistentMpi& pm = pmpi_[op.backend];
  if (op.partitions == 0) {
    // Persistent at the MPI layer: the handle survives completion.
    if (block) {
      rc_.wait(pm.req, st);
      return true;
    }
    return rc_.test(pm.req, st);
  }
  // waitall/testall null the entries of completed persistent requests (the
  // dead-slot contract): complete copies so the originals stay valid.
  std::vector<smpi::Request> copies(pm.parts.begin(), pm.parts.end());
  if (block) {
    rc_.waitall(copies);
  } else if (!rc_.testall(copies)) {
    return false;
  }
  return true;
}

void DirectProxy::backend_free(const PersistentOp& op) {
  pmpi_[op.backend].release(rc_);
}

void DirectProxy::backend_attach(const PersistentOp& op, ContFn fn) {
  PersistentMpi& pm = pmpi_[op.backend];
  if (op.partitions == 0) {
    PReq pr = wrap(pm.req);
    attach_continuation(pr, std::move(fn));
    return;
  }
  // When-all over the partitions' one-shot continuations.
  auto remaining = std::make_shared<std::uint32_t>(op.partitions);
  auto cb = std::make_shared<ContFn>(std::move(fn));
  for (const smpi::Request part : pm.parts) {
    PReq pr = wrap(part);
    attach_continuation(pr, [remaining, cb](const smpi::Status&) {
      if (--*remaining == 0) (*cb)(smpi::Status{});
    });
  }
}

// ------------------------------------------------------------ IprobeProxy ----

void IprobeProxy::progress_hint() {
  rc_.iprobe(smpi::kAnySource, smpi::kAnyTag, smpi::kCommWorld, nullptr);
  // The PROGRESS macro is exactly where armed continuations get cycles.
  pump_continuations();
}

// ---------------------------------------------------------- CommSelfProxy ----

void CommSelfProxy::start_engine() {
  if (rc_.thread_level() != smpi::ThreadLevel::kMultiple) {
    throw std::logic_error("comm-self requires MPI_THREAD_MULTIPLE");
  }
  // Duplicate COMM_SELF (purely local) and park a thread in a blocking
  // receive on it. The matching send is only posted by stop().
  progress_comm_ = rc_.comm_dup(smpi::kCommSelf);
  running_ = true;
  smpi::RankCtx* rc = &rc_;
  auto* self = this;
  rc_.cluster().spawn_on(rc_.rank(), "rank" + std::to_string(rc_.rank()) + ".commself",
                         [rc, self]() {
                           rc->recv(&self->recv_token_, 1, smpi::Datatype::kByte,
                                    0, 0, self->progress_comm_, nullptr);
                           self->running_ = false;
                         });
}

void CommSelfProxy::stop() {
  if (!running_) return;
  // Unblock the progress thread by satisfying its receive.
  stop_token_ = 1;
  rc_.send(&stop_token_, 1, smpi::Datatype::kByte, 0, 0, progress_comm_);
  // Let the progress fiber observe completion and exit.
  while (running_) sim::advance(sim::Time::from_ns(100));
}

// ----------------------------------------------------------- OffloadProxy ----

OffloadProxy::OffloadProxy(smpi::RankCtx& rc)
    : OffloadProxy(rc, ProxyOptions::from_env(rc.profile())) {}

OffloadProxy::OffloadProxy(smpi::RankCtx& rc, const ProxyOptions& opts)
    : Proxy(rc), channel_(rc, opts) {}

namespace {
// PReq <-> pool-slot mapping: slots are biased by one so PReq{0} stays the
// universal null handle (slot 0 is a valid pool index).
PReq preq_of(std::uint32_t slot) {
  return PReq{static_cast<std::uint64_t>(slot) + 1};
}
std::uint32_t slot_of(PReq r) { return static_cast<std::uint32_t>(r.v - 1); }
}  // namespace

void OffloadProxy::start_engine() {
  auto* ch = &channel_;
  const std::size_t n = channel_.engine_count();
  engine_fibers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Engine 0 keeps the classic fiber name; siblings get a suffix so traces
    // and the fiber registry distinguish them.
    std::string name = "rank" + std::to_string(rc_.rank()) + ".offload";
    if (i != 0) name += std::to_string(i);
    engine_fibers_.push_back(&rc_.cluster().spawn_on(
        rc_.rank(), name, [ch, i]() { ch->engine_main(i); }));
  }
}

void OffloadProxy::stop() {
  channel_.shutdown();
  for (sim::Fiber* f : engine_fibers_) {
    while (f != nullptr && !f->done()) {
      sim::advance(sim::Time::from_ns(100));
    }
  }
}

PReq OffloadProxy::backend_submit(const Command& cmd) {
  return preq_of(channel_.submit(cmd));
}
void OffloadProxy::wait(PReq& r, smpi::Status* st) {
  if (r.is_null()) return;
  channel_.wait_done(slot_of(r), st);
  r = PReq{};
}
bool OffloadProxy::test(PReq& r, smpi::Status* st) {
  if (r.is_null()) return true;
  if (!channel_.test_done(slot_of(r), st)) return false;
  r = PReq{};
  return true;
}
void OffloadProxy::waitall(std::span<PReq> rs) {
  if (rs.empty()) return;  // no-op: no flags to scan, no doorbell to ring
  if (channel_.in_engine()) {
    throw std::logic_error(san::engine_block_message("OffloadProxy::waitall"));
  }
  trace::Scope tsc("wait:all", "offload");
  for (;;) {
    // One testall pass over the done flags per wake; the completion
    // notifier's count is snapshotted first so a flag published mid-scan
    // re-runs the pass instead of being slept past.
    const std::uint64_t seen = channel_.completions().count();
    if (testall(rs)) return;
    channel_.completions().wait_beyond(seen);
  }
}
int OffloadProxy::waitany(std::span<PReq> rs, smpi::Status* st) {
  if (channel_.in_engine()) {
    throw std::logic_error(san::engine_block_message("OffloadProxy::waitany"));
  }
  trace::Scope tsc("wait:any", "offload");
  for (;;) {
    const std::uint64_t seen = channel_.completions().count();
    bool any_active = false;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i].is_null()) continue;
      any_active = true;
      if (!channel_.test_done(slot_of(rs[i]), st)) continue;
      rs[i] = PReq{};
      return static_cast<int>(i);
    }
    if (!any_active) return -1;
    channel_.completions().wait_beyond(seen);
  }
}
bool OffloadProxy::testall(std::span<PReq> rs) {
  const auto& p = rc_.profile();
  const RequestPool& pool = channel_.pool();
  // Single pass over the done flags; release only if every one is set.
  for (const PReq& r : rs) {
    if (r.is_null()) continue;
    sim::advance(p.done_flag_check);
    if (!pool.done(slot_of(r))) return false;
  }
  bool freed = false;
  for (PReq& r : rs) {
    if (r.is_null()) continue;
    channel_.release_slot(slot_of(r), nullptr, false);
    r = PReq{};
    freed = true;
  }
  if (freed) channel_.completions().signal();
  return true;
}
void OffloadProxy::backend_post_batch(std::span<const BatchOp> ops,
                                      std::span<PReq> out) {
  for (const BatchOp& o : ops) {
    if (o.op == CmdOp::kStartPersistent) {
      // Persistent starts carry a pre-pinned pool slot and a different
      // command shape than the alloc-as-you-publish batch path — post mixed
      // groups element-wise (each start is already the cheap re-arm form).
      Proxy::backend_post_batch(ops, out);
      return;
    }
  }
  const std::size_t flush = channel_.options().batch_flush;
  // Per-call scratch: submit_batch advances virtual time (and a real enqueue
  // would block), so another fiber can enter post_batch concurrently — a
  // shared member buffer would be clobbered mid-flush.
  std::vector<Command> scratch;
  scratch.reserve(std::min(flush, ops.size()));
  for (std::size_t base = 0; base < ops.size(); base += flush) {
    const std::size_t n = std::min(flush, ops.size() - base);
    scratch.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const BatchOp& o = ops[base + i];
      scratch.push_back(envelope(o.op, o.sbuf, o.rbuf, o.count, o.dtype,
                                 o.peer, o.tag, o.comm));
    }
    channel_.submit_batch(scratch);
    for (std::size_t i = 0; i < n; ++i) {
      out[base + i] = preq_of(scratch[i].proxy);
    }
  }
}
// Persistent backend: the channel keeps the mechanics (pinned pool slot,
// kStartPersistent/kFreePersistent publish, ready words, engine side).

std::uint32_t OffloadProxy::backend_init(const Command& env,
                                         std::uint32_t partitions) {
  return channel_.persist_init(env, partitions);
}
void OffloadProxy::backend_arm(const PersistentOp& op) {
  channel_.persist_start(op.backend);
}
void OffloadProxy::backend_ship(const PersistentOp& op, std::uint32_t lo,
                                std::uint32_t hi) {
  channel_.persist_pready(op.backend, lo, hi);
}
bool OffloadProxy::backend_complete(const PersistentOp& op, bool block,
                                    smpi::Status* st) {
  // The pinned slot is kept: completion returns the request to inactive.
  const std::uint32_t slot = channel_.persist_pool_slot(op.backend);
  if (!block) return channel_.test_done(slot, st, /*keep=*/true);
  channel_.wait_done(slot, st, /*keep=*/true);
  return true;
}
void OffloadProxy::backend_free(const PersistentOp& op) {
  channel_.persist_free(op.backend);
}
void OffloadProxy::backend_attach(const PersistentOp& op, ContFn fn) {
  channel_.attach_continuation(channel_.persist_pool_slot(op.backend),
                               std::move(fn));
}

void OffloadProxy::attach_continuation(PReq& r, ContFn fn) {
  if (r.is_null()) {
    fn(smpi::Status{});  // released handle: complete by contract, run inline
    return;
  }
  channel_.attach_continuation(slot_of(r), std::move(fn));
  r = PReq{};
}

void OffloadProxy::cont_wait(const std::function<bool()>& done) {
  if (channel_.in_engine()) {
    throw std::logic_error(
        san::engine_block_message("OffloadProxy::cont_wait"));
  }
  trace::Scope tsc("cont:wait", "offload");
  // The engine fiber runs the continuations; this thread only sleeps on the
  // completion doorbell (same snapshot-then-wait pattern as waitall). When
  // the waiter IS the engine (a callback calling Event::wait) this would
  // self-deadlock — the engine forbids it.
  while (!done()) {
    const std::uint64_t seen = channel_.completions().count();
    if (done()) break;
    channel_.completions().wait_beyond(seen);
  }
}

// ---------------------------------------------------------------- factory ----

std::unique_ptr<Proxy> make_proxy(Approach a, smpi::RankCtx& rc) {
  switch (a) {
    case Approach::kBaseline:
      return std::make_unique<DirectProxy>(rc);
    case Approach::kIprobe:
      return std::make_unique<IprobeProxy>(rc);
    case Approach::kCommSelf:
      return std::make_unique<CommSelfProxy>(rc);
    case Approach::kOffload:
      return std::make_unique<OffloadProxy>(rc);
  }
  throw std::logic_error("unknown approach");
}

std::unique_ptr<Proxy> make_proxy(Approach a, smpi::RankCtx& rc,
                                  const ProxyOptions& opts) {
  if (a == Approach::kOffload) return std::make_unique<OffloadProxy>(rc, opts);
  return make_proxy(a, rc);  // tuning only applies to the offload channel
}

}  // namespace core
