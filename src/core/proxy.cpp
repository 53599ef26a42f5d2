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
  if (ops.size() != out.size()) {
    throw std::invalid_argument("post_batch: ops/out span size mismatch");
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const BatchOp& o = ops[i];
    if (o.op == CmdOp::kIsend) {
      out[i] = isend(o.sbuf, o.count, o.dtype, o.peer, o.tag, o.comm);
    } else if (o.op == CmdOp::kIrecv) {
      out[i] = irecv(o.rbuf, o.count, o.dtype, o.peer, o.tag, o.comm);
    } else if (o.op == CmdOp::kStartPersistent) {
      PersistentReq pr{o.persist};
      start(pr);
      out[i] = PReq{};  // completion goes through the persistent handle
    } else {
      throw std::invalid_argument(
          "post_batch: only isend/irecv/start ops batch");
    }
  }
}

void Proxy::waitall(std::span<PReq> rs) {
  for (PReq& r : rs) wait(r);
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

/// A point-to-point command: the offload proxy's one-shot submit, and the
/// envelope every backend registers a persistent request from.
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

smpi::Win Proxy::win_create(void* base, std::size_t bytes, smpi::Comm c) {
  return rc_.win_create(base, bytes, c);
}
void Proxy::win_free(smpi::Win w) { rc_.win_free(w); }
void Proxy::put(const void* origin, std::size_t bytes, int target,
                std::size_t target_offset, smpi::Win w) {
  rc_.put(origin, bytes, target, target_offset, w);
}
void Proxy::get(void* origin, std::size_t bytes, int target,
                std::size_t target_offset, smpi::Win w) {
  rc_.get(origin, bytes, target, target_offset, w);
}
void Proxy::fence(smpi::Win w) { rc_.win_fence(w); }

// ------------------------------------------------------------ DirectProxy ----

namespace {
PReq wrap(smpi::Request r) { return PReq{static_cast<std::uint64_t>(r.idx)}; }
smpi::Request unwrap(PReq r) { return smpi::Request{static_cast<int>(r.v)}; }
}  // namespace

PReq DirectProxy::isend(const void* b, std::size_t n, smpi::Datatype dt,
                        int dst, int tag, smpi::Comm c) {
  return wrap(rc_.isend(b, n, dt, dst, tag, c));
}
PReq DirectProxy::irecv(void* b, std::size_t n, smpi::Datatype dt, int src,
                        int tag, smpi::Comm c) {
  return wrap(rc_.irecv(b, n, dt, src, tag, c));
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
  std::vector<smpi::Request> reqs;
  reqs.reserve(rs.size());
  for (PReq r : rs) reqs.push_back(unwrap(r));
  rc_.waitall(reqs);
  for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = wrap(reqs[i]);
}
int DirectProxy::waitany(std::span<PReq> rs, smpi::Status* st) {
  if (rs.empty()) return -1;  // MPI_UNDEFINED for an empty list
  std::vector<smpi::Request> reqs;
  reqs.reserve(rs.size());
  for (PReq r : rs) reqs.push_back(unwrap(r));
  const int idx = rc_.waitany(reqs, st);
  for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = wrap(reqs[i]);
  return idx;
}
bool DirectProxy::testall(std::span<PReq> rs) {
  if (rs.empty()) return true;  // MPI_Testall(0, ...) sets flag = true
  std::vector<smpi::Request> reqs;
  reqs.reserve(rs.size());
  for (PReq r : rs) reqs.push_back(unwrap(r));
  const bool done = rc_.testall(reqs);
  for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = wrap(reqs[i]);
  return done;
}
PReq DirectProxy::ibarrier(smpi::Comm c) { return wrap(rc_.ibarrier(c)); }
PReq DirectProxy::ibcast(void* b, std::size_t n, smpi::Datatype dt, int root,
                         smpi::Comm c) {
  return wrap(rc_.ibcast(b, n, dt, root, c));
}
PReq DirectProxy::ireduce(const void* s, void* r, std::size_t n,
                          smpi::Datatype dt, smpi::Op op, int root,
                          smpi::Comm c) {
  return wrap(rc_.ireduce(s, r, n, dt, op, root, c));
}
PReq DirectProxy::iallreduce(const void* s, void* r, std::size_t n,
                             smpi::Datatype dt, smpi::Op op, smpi::Comm c) {
  return wrap(rc_.iallreduce(s, r, n, dt, op, c));
}
PReq DirectProxy::ialltoall(const void* s, void* r, std::size_t n_per,
                            smpi::Datatype dt, smpi::Comm c) {
  return wrap(rc_.ialltoall(s, r, n_per, dt, c));
}
PReq DirectProxy::iallgather(const void* s, void* r, std::size_t n_per,
                             smpi::Datatype dt, smpi::Comm c) {
  return wrap(rc_.iallgather(s, r, n_per, dt, c));
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
  const bool send = env.op == CmdOp::kIsend;
  PersistentMpi pm;
  if (partitions == 0) {
    pm.req = send ? rc_.send_init(env.sbuf, env.count, env.dtype, env.peer,
                                  env.tag, env.comm)
                  : rc_.recv_init(env.rbuf, env.count, env.dtype, env.peer,
                                  env.tag, env.comm);
  } else {
    const std::uint64_t bytes = env.count * smpi::datatype_size(env.dtype);
    pm.parts.resize(partitions);
    for (std::uint32_t p = 0; p < partitions; ++p) {
      const int wtag = smpi::part_wire_tag(env.tag, static_cast<int>(p));
      if (send) {
        const auto [at, len] = smpi::part_slice(env.sbuf, bytes, partitions, p);
        pm.parts[p] = rc_.send_init(at, len, smpi::Datatype::kByte, env.peer,
                                    wtag, env.comm);
      } else {
        const auto [at, len] = smpi::part_slice(env.rbuf, bytes, partitions, p);
        pm.parts[p] = rc_.recv_init(at, len, smpi::Datatype::kByte, env.peer,
                                    wtag, env.comm);
      }
    }
  }
  pmpi_.push_back(std::move(pm));
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
  st->source = op.peer;
  return true;
}

void DirectProxy::backend_free(const PersistentOp& op) {
  PersistentMpi& pm = pmpi_[op.backend];
  if (!pm.req.is_null()) rc_.request_free(pm.req);
  for (smpi::Request& part : pm.parts) rc_.request_free(part);
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
  smpi::Status whole;
  whole.source = op.peer;
  for (const smpi::Request part : pm.parts) {
    PReq pr = wrap(part);
    attach_continuation(pr, [remaining, cb, whole](const smpi::Status&) {
      if (--*remaining == 0) (*cb)(whole);
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

namespace {
Command base_cmd(CmdOp op, smpi::Comm c) {
  Command cmd;
  cmd.op = op;
  cmd.comm = c;
  return cmd;
}
}  // namespace

PReq OffloadProxy::isend(const void* b, std::size_t n, smpi::Datatype dt,
                         int dst, int tag, smpi::Comm c) {
  return preq_of(channel_.submit(
      envelope(CmdOp::kIsend, b, nullptr, n, dt, dst, tag, c)));
}
PReq OffloadProxy::irecv(void* b, std::size_t n, smpi::Datatype dt, int src,
                         int tag, smpi::Comm c) {
  return preq_of(channel_.submit(
      envelope(CmdOp::kIrecv, nullptr, b, n, dt, src, tag, c)));
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
  const auto& p = rc_.profile();
  RequestPool& pool = channel_.pool();
  for (;;) {
    // One pass over the done flags per wake; the completion notifier's count
    // is snapshotted first so a flag published mid-scan re-runs the pass
    // instead of being slept past.
    const std::uint64_t seen = channel_.completions().count();
    bool all_done = true;
    for (const PReq& r : rs) {
      if (r.is_null()) continue;
      sim::advance(p.done_flag_check);
      if (!pool.done(slot_of(r))) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    channel_.completions().wait_beyond(seen);
  }
  for (PReq& r : rs) {
    if (r.is_null()) continue;
    sim::advance(p.request_pool_op);
    san::acquire(&pool, slot_of(r));  // completer's done-flag publish
    san::release(&pool, slot_of(r));  // hand the slot to the next alloc()
    pool.free(slot_of(r));
    r = PReq{};
  }
  channel_.completions().signal();  // freed slots may unblock a full pool
}
int OffloadProxy::waitany(std::span<PReq> rs, smpi::Status* st) {
  if (channel_.in_engine()) {
    throw std::logic_error(san::engine_block_message("OffloadProxy::waitany"));
  }
  trace::Scope tsc("wait:any", "offload");
  const auto& p = rc_.profile();
  RequestPool& pool = channel_.pool();
  for (;;) {
    const std::uint64_t seen = channel_.completions().count();
    bool any_active = false;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i].is_null()) continue;
      any_active = true;
      sim::advance(p.done_flag_check);
      const std::uint32_t slot = slot_of(rs[i]);
      if (!pool.done(slot)) continue;
      san::acquire(&pool, slot);
      if (st != nullptr) *st = pool.status(slot);
      sim::advance(p.request_pool_op);
      san::release(&pool, slot);
      pool.free(slot);
      channel_.completions().signal();
      rs[i] = PReq{};
      return static_cast<int>(i);
    }
    if (!any_active) return -1;
    channel_.completions().wait_beyond(seen);
  }
}
bool OffloadProxy::testall(std::span<PReq> rs) {
  const auto& p = rc_.profile();
  RequestPool& pool = channel_.pool();
  // Single pass over the done flags; release only if every one is set.
  for (const PReq& r : rs) {
    if (r.is_null()) continue;
    sim::advance(p.done_flag_check);
    if (!pool.done(slot_of(r))) return false;
  }
  bool freed = false;
  for (PReq& r : rs) {
    if (r.is_null()) continue;
    sim::advance(p.request_pool_op);
    san::acquire(&pool, slot_of(r));
    san::release(&pool, slot_of(r));
    pool.free(slot_of(r));
    r = PReq{};
    freed = true;
  }
  if (freed) channel_.completions().signal();
  return true;
}
void OffloadProxy::post_batch(std::span<const BatchOp> ops,
                              std::span<PReq> out) {
  if (ops.size() != out.size()) {
    throw std::invalid_argument("post_batch: ops/out span size mismatch");
  }
  for (const BatchOp& o : ops) {
    if (o.op == CmdOp::kStartPersistent) {
      // Persistent starts carry a pre-pinned pool slot and a different
      // command shape than the alloc-as-you-publish batch path — post mixed
      // groups element-wise (each start is already the cheap re-arm form).
      Proxy::post_batch(ops, out);
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
      if (o.op != CmdOp::kIsend && o.op != CmdOp::kIrecv) {
        throw std::invalid_argument("post_batch: only isend/irecv ops batch");
      }
      scratch.push_back(envelope(o.op, o.sbuf, o.rbuf, o.count, o.dtype,
                                 o.peer, o.tag, o.comm));
    }
    channel_.submit_batch(scratch);
    for (std::size_t i = 0; i < n; ++i) {
      out[base + i] = preq_of(scratch[i].proxy);
    }
  }
}
PReq OffloadProxy::ibarrier(smpi::Comm c) {
  return preq_of(channel_.submit(base_cmd(CmdOp::kIbarrier, c)));
}
PReq OffloadProxy::ibcast(void* b, std::size_t n, smpi::Datatype dt, int root,
                          smpi::Comm c) {
  Command cmd = base_cmd(CmdOp::kIbcast, c);
  cmd.rbuf = b;
  cmd.count = n;
  cmd.dtype = dt;
  cmd.peer = root;
  return preq_of(channel_.submit(cmd));
}
PReq OffloadProxy::ireduce(const void* s, void* r, std::size_t n,
                           smpi::Datatype dt, smpi::Op op, int root,
                           smpi::Comm c) {
  Command cmd = base_cmd(CmdOp::kIreduce, c);
  cmd.sbuf = s;
  cmd.rbuf = r;
  cmd.count = n;
  cmd.dtype = dt;
  cmd.rop = op;
  cmd.peer = root;
  return preq_of(channel_.submit(cmd));
}
PReq OffloadProxy::iallreduce(const void* s, void* r, std::size_t n,
                              smpi::Datatype dt, smpi::Op op, smpi::Comm c) {
  Command cmd = base_cmd(CmdOp::kIallreduce, c);
  cmd.sbuf = s;
  cmd.rbuf = r;
  cmd.count = n;
  cmd.dtype = dt;
  cmd.rop = op;
  return preq_of(channel_.submit(cmd));
}
PReq OffloadProxy::ialltoall(const void* s, void* r, std::size_t n_per,
                             smpi::Datatype dt, smpi::Comm c) {
  Command cmd = base_cmd(CmdOp::kIalltoall, c);
  cmd.sbuf = s;
  cmd.rbuf = r;
  cmd.count = n_per;
  cmd.dtype = dt;
  return preq_of(channel_.submit(cmd));
}
PReq OffloadProxy::iallgather(const void* s, void* r, std::size_t n_per,
                              smpi::Datatype dt, smpi::Comm c) {
  Command cmd = base_cmd(CmdOp::kIallgather, c);
  cmd.sbuf = s;
  cmd.rbuf = r;
  cmd.count = n_per;
  cmd.dtype = dt;
  return preq_of(channel_.submit(cmd));
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

smpi::Win OffloadProxy::win_create(void* base, std::size_t bytes, smpi::Comm c) {
  Command cmd = base_cmd(CmdOp::kWinCreate, c);
  cmd.rbuf = base;
  cmd.count = bytes;
  smpi::Win out;
  cmd.win_out = &out;
  channel_.wait_done(channel_.submit(cmd));
  return out;
}
void OffloadProxy::win_free(smpi::Win w) {
  Command cmd = base_cmd(CmdOp::kWinFree, smpi::kCommWorld);
  cmd.win = w;
  channel_.wait_done(channel_.submit(cmd));
}
void OffloadProxy::put(const void* origin, std::size_t bytes, int target,
                       std::size_t target_offset, smpi::Win w) {
  Command cmd = base_cmd(CmdOp::kPut, smpi::kCommWorld);
  cmd.sbuf = origin;
  cmd.count = bytes;
  cmd.peer = target;
  cmd.offset = target_offset;
  cmd.win = w;
  // Fire-and-forget at the MPI level: the engine completes the proxy slot as
  // soon as the put is injected; remote completion is the fence's job.
  channel_.wait_done(channel_.submit(cmd));
}
void OffloadProxy::get(void* origin, std::size_t bytes, int target,
                       std::size_t target_offset, smpi::Win w) {
  Command cmd = base_cmd(CmdOp::kGet, smpi::kCommWorld);
  cmd.rbuf = origin;
  cmd.count = bytes;
  cmd.peer = target;
  cmd.offset = target_offset;
  cmd.win = w;
  channel_.wait_done(channel_.submit(cmd));
}
void OffloadProxy::fence(smpi::Win w) {
  Command cmd = base_cmd(CmdOp::kIfence, smpi::kCommWorld);
  cmd.win = w;
  channel_.wait_done(channel_.submit(cmd));
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
