// Point-to-point operations, request completion, and the blocking-wait
// kernel. Protocol selection:
//   * bytes <= profile.eager_threshold → eager: copy into an internal buffer
//     (CPU, proportional to size), inject; the send request completes
//     immediately (locally buffered).
//   * bytes >  threshold → rendezvous: post an RTS; data moves only after
//     the receiver's progress engine matched it and returned a CTS — the
//     mechanism behind the paper's Fig. 2/4 overlap cliff.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "mpi/cluster.hpp"
#include "mpi/entry.hpp"
#include "mpi/rank_ctx.hpp"
#include "mpi/wire.hpp"
#include "san/san.hpp"
#include "trace/scope.hpp"

namespace smpi {

RankCtx::RankCtx(Cluster& cluster, int rank, ThreadLevel level)
    : cluster_(cluster),
      rank_(rank),
      level_(level),
      c_retransmits_(rank, "rel.retransmits"),
      c_dup_drops_(rank, "rel.dup_drops") {
  comms_.init(rank, cluster.nranks());
  rel_on_ = cluster.profile().faults.enabled();
  if (rel_on_) rel_.resize(static_cast<std::size_t>(cluster.nranks()));
}

int RankCtx::nranks() const { return cluster_.nranks(); }

const machine::Profile& RankCtx::profile() const { return cluster_.profile(); }

// ------------------------------------------------------------ internals ----

Request RankCtx::isend_internal(const void* buf, std::size_t bytes,
                                int dst_global, std::uint32_t ctx, int tag,
                                Comm comm) {
  RequestImpl& r = reqs_.alloc();
  post_send_into(r, buf, bytes, dst_global, ctx, tag, comm,
                 /*registered=*/false);
  return Request{r.idx};
}

void RankCtx::post_send_into(RequestImpl& r, const void* buf,
                             std::size_t bytes, int dst_global,
                             std::uint32_t ctx, int tag, Comm comm,
                             bool registered) {
  (void)comm;
  const auto& p = profile();

  if (dst_global == rank_) {
    // Loopback: one shared-memory copy, delivered straight to our own inbox
    // (always "eager" — no NIC involved). Registered (persistent) buffers
    // are byte-stable for the generation, so the receiver DMAs straight from
    // them — no sender-side bounce-copy charge (the memcpy below stays:
    // simulation bookkeeping, digests must see the payload).
    trace::Scope tsc("send:loopback", "mpi");
    if (!registered) sim::advance(p.copy_cost(bytes));
    machine::NetMessage m;
    m.src = m.dst = rank_;
    m.kind = kWireEager;
    m.h0 = ctx;
    m.h1 = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
    m.h2 = bytes;
    if (buf != nullptr) {
      m.payload.resize(bytes);
      std::memcpy(m.payload.data(), buf, bytes);
    } else {
      m.wire_bytes = bytes;  // phantom payload: timing only
    }
    inbox_.push_back(std::move(m));
    arrivals_.signal();
    r.kind = ReqKind::kSendEager;
    r.complete = true;
    ++stats_.eager_sends;
    return;
  }

  // Collective stages batch their sends on one doorbell (see
  // post_coll_stage): the first descriptor rings, the rest only pay the
  // already-charged enqueue work. The coll_* flags are state of the LIVE
  // progress pass; a send issued by a sibling engine fiber interleaving with
  // that pass must not inherit its batching or registered-buffer treatment.
  const bool stage_post = coll_posting_ && progress_pass_current();
  const auto charge_doorbell = [&] {
    const bool batching = coll_doorbell_batch_ && progress_pass_current();
    if (batching && coll_doorbell_rung_) {
      ++coll_stats_.doorbells_amortized;
      return;
    }
    sim::advance(p.nic_doorbell);
    if (batching) coll_doorbell_rung_ = true;
  };

  if (bytes <= p.eager_threshold) {
    // Eager: internal copy + doorbell; complete at once. Collective stage
    // sends come from schedule-owned registered buffers that stay stable
    // until the stage completes, so the NIC serializes straight from them —
    // no CPU bounce copy (the simulation memcpy below is bookkeeping only).
    // Registered persistent-send buffers get the same treatment.
    trace::Scope tsc("send:eager", "mpi");
    if (!stage_post && !registered) sim::advance(p.copy_cost(bytes));
    charge_doorbell();
    machine::NetMessage m;
    m.src = rank_;
    m.dst = dst_global;
    m.kind = kWireEager;
    m.h0 = ctx;
    m.h1 = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
    m.h2 = bytes;
    if (buf != nullptr) {
      m.payload.resize(bytes);
      std::memcpy(m.payload.data(), buf, bytes);
    }
    m.wire_bytes = bytes;
    net_send(std::move(m));
    r.kind = ReqKind::kSendEager;
    r.complete = true;
    ++stats_.eager_sends;
    return;
  }

  // Rendezvous: control message only; the payload stays in the user buffer.
  trace::Scope tsc("send:rts", "mpi");
  charge_doorbell();
  r.kind = ReqKind::kSendRndv;
  r.sbuf = buf;
  r.sbytes = bytes;
  r.dst_global = dst_global;
  machine::NetMessage m;
  m.src = rank_;
  m.dst = dst_global;
  m.kind = kWireRts;
  m.h0 = ctx;
  m.h1 = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
  m.h2 = static_cast<std::uint64_t>(r.idx);
  m.h3 = bytes;
  net_send(std::move(m));
  pending_rndv_send_.push_back(&r);
  ++stats_.rndv_sends;
  // Rendezvous keeps the payload in the user buffer until the CTS/DMA runs:
  // that inflight window is exactly what the sanitizer's buffer lint guards.
  // (Eager/loopback sends complete at post time — nothing stays inflight.)
  if (!stage_post) san::mpi_post_send(rank_, r.idx, buf, bytes);
}

Request RankCtx::irecv_internal(void* buf, std::size_t bytes, int src_global,
                                std::uint32_t ctx, int tag, Comm comm) {
  RequestImpl& r = reqs_.alloc();
  post_recv_into(r, buf, bytes, src_global, ctx, tag, comm);
  return Request{r.idx};
}

void RankCtx::post_recv_into(RequestImpl& r, void* buf, std::size_t bytes,
                             int src_global, std::uint32_t ctx, int tag,
                             Comm comm) {
  const auto& p = profile();
  r.kind = ReqKind::kRecv;
  r.rbuf = buf;
  r.rbytes = bytes;
  r.ctx = ctx;
  r.src_global = src_global;
  r.tag = tag;
  r.comm = comm;
  r.coll_internal = coll_posting_ && progress_pass_current();

  // First look in the unexpected queue (MPI ordering requires it).
  if (auto um = match_.match_unexpected(ctx, src_global, tag)) {
    trace::Scope tsc("recv:unexpected", "mpi");
    ++stats_.unexpected_hits;
    sim::advance(p.mpi_match_cost);
    if (um->is_rndv) {
      if (um->bytes > bytes) throw std::runtime_error("recv truncation (rndv)");
      send_cts(um->sender_req, um->env.src_global, r);
      r.matched_rndv = true;
      r.status.source = comms_.get(comm).from_global(um->env.src_global);
      r.status.tag = um->env.tag;
      r.status.bytes = um->bytes;
      pending_rndv_recv_.push_back(&r);
      if (!r.coll_internal) san::mpi_post_recv(rank_, r.idx, buf, bytes);
    } else {
      if (um->bytes > bytes) throw std::runtime_error("recv truncation");
      sim::advance(p.copy_cost(um->bytes));
      if (buf != nullptr && !um->payload.empty()) {
        std::memcpy(buf, um->payload.data(), um->payload.size());
      }
      r.status.source = comms_.get(comm).from_global(um->env.src_global);
      r.status.tag = um->env.tag;
      r.status.bytes = um->bytes;
      r.complete = true;
    }
    return;
  }

  match_.post_recv(&r);
  if (!r.coll_internal) san::mpi_post_recv(rank_, r.idx, buf, bytes);
}

// ---------------------------------------------------- persistent internals --

void RankCtx::start_internal(RequestImpl& r) {
  if (!r.persistent) {
    san::mpi_persist_misuse(rank_, "Start", "request is not persistent");
    throw std::logic_error("MPI_Start: request is not persistent");
  }
  if (r.p_started && !r.complete) {
    san::mpi_persist_misuse(rank_, "Start",
                            "previous generation still in flight");
    throw std::logic_error("MPI_Start: previous generation still in flight");
  }
  if (r.p_started && r.complete) {
    // Completed but never waited: settle the old generation before re-arming
    // (its status is dropped — wait/test between generations to observe it).
    san::mpi_complete(rank_, r.idx);
  }
  r.reset_transfer_state();
  r.p_started = true;
  if (r.p_peer == kProcNull) {
    r.kind = r.p_send ? ReqKind::kSendEager : ReqKind::kRecv;
    if (!r.p_send) r.status = Status{kProcNull, kAnyTag, 0};
    r.complete = true;
    return;
  }
  if (r.p_send) {
    post_send_into(r, r.p_buf, r.p_bytes, r.p_peer, r.p_ctx, r.p_tag, r.p_comm,
                   /*registered=*/true);
  } else {
    post_recv_into(r, r.p_buf, r.p_bytes, r.p_peer, r.p_ctx, r.p_tag,
                   r.p_comm);
  }
}

// ------------------------------------------------------------ wait core ----

void RankCtx::wait_until(MpiEntry& entry, const std::function<bool()>& done) {
  const auto& p = profile();
  // Fast path: already complete (e.g. MPI_Wait on a finished eager send) —
  // real implementations check the request state before touching the
  // progress engine.
  if (done()) return;
  ++blocked_in_mpi_;
  struct Dec {
    int& v;
    ~Dec() { --v; }
  } dec{blocked_in_mpi_};
  // Adaptive spin: a MULTIPLE waiter hammers the lock at the base period
  // while traffic is active, but backs off exponentially when consecutive
  // re-polls find nothing (bounds simulator event counts on long waits
  // without changing contention behaviour at microsecond scales).
  std::int64_t backoff = p.multiple_repoll.ns();
  for (;;) {
    // Capture the arrival cursor BEFORE polling: anything that lands while
    // the poll's own work advances the clock makes the wait below return
    // immediately instead of being lost.
    const std::uint64_t seen = arrivals_.count();
    progress_poll();
    if (done()) return;
    if (level_ == ThreadLevel::kMultiple) {
      // A blocked MULTIPLE thread cycles lock→progress→unlock; it holds the
      // lock for a slice each cycle, which is what serializes other threads
      // when several of them block concurrently (paper Fig. 6). With no
      // other thread inside the library the cycling has no observable
      // effect, so the model waits for an arrival instead (every protocol
      // transition is arrival-signalled).
      sim::advance(p.big_lock_slice);
      entry.unlock_for_sleep();
      if (blocked_in_mpi_ > 1 || rel_on_) {
        if (arrivals_.wait_beyond_timeout(seen, sim::Time(backoff))) {
          backoff = p.multiple_repoll.ns();  // traffic: spin hard again
        } else {
          backoff = std::min<std::int64_t>(backoff * 2,
                                           p.multiple_repoll.ns() * 128);
        }
      } else {
        arrivals_.wait_beyond(seen);
      }
      entry.relock();
    } else if (rel_on_) {
      // Under faults the wake we are waiting for may itself be lost (dropped
      // ack, dropped data frame): sleep with a bound so the software
      // retransmit timers in progress_poll get a chance to fire. Same
      // exponential backoff as the MULTIPLE path to bound event counts.
      if (arrivals_.wait_beyond_timeout(seen, sim::Time(backoff))) {
        backoff = p.multiple_repoll.ns();
      } else {
        backoff =
            std::min<std::int64_t>(backoff * 2, p.multiple_repoll.ns() * 128);
      }
    } else {
      arrivals_.wait_beyond(seen);
    }
  }
}

// The completion kernel behind the seven test/wait calls. Each takes the
// same steps: enter MPI, treat stale handles as null (the sanitizer reports
// them), then poll once and scan (test forms) or block until `need` holds
// (wait forms, whose wait_until checks before its first poll), and release
// what settled:
//   * kOne — one handle. A null or stale one completes at once with an empty
//     status; a persistent handle survives its completion.
//   * kAll — every non-null entry settled; all of them are released.
//   * kAny / kSome — the first / every settled entry is released. Null and
//     inactive persistent entries take no part; with none left the call
//     completes with nothing (MPI_UNDEFINED / the empty set).
// The array forms null every entry they complete, persistent ones included:
// the offload engine's testany sweep uses that null as its dead-slot marker.
// Returns false only when a test form finds `need` unmet. `first` gets the
// first completed position (-1 if none); `some` collects them all.
bool RankCtx::complete(const char* call, std::span<Request> rs, Need need,
                       bool block, Status* st, int* first,
                       std::vector<int>* some) {
  MpiEntry entry(*this, call);
  for (Request& r : rs) {
    if (!r.is_null() &&
        !san::mpi_handle_ok(rank_, r.idx, reqs_.get(r).active, call)) {
      r = kRequestNull;  // stale: treat as complete, as a real wait would
    }
  }
  if (need == Need::kOne && rs[0].is_null()) {
    if (st != nullptr) *st = Status{};
    return true;
  }
  const bool any_of = need == Need::kAny || need == Need::kSome;
  const auto skip = [&](Request r) {
    return r.is_null() || (any_of && reqs_.get(r).inactive());
  };
  const auto met = [&] {
    bool active = false;
    for (Request r : rs) {
      if (skip(r)) continue;
      active = true;
      const bool settled = reqs_.get(r).settled();
      if (any_of && settled) return true;
      if (!any_of && !settled) return false;
    }
    return !any_of || !active;
  };
  if (first != nullptr) *first = -1;
  if (block) {
    wait_until(entry, met);
  } else {
    progress_poll();
    if (!met()) return false;
  }
  Status* out = (need == Need::kOne || need == Need::kAny) ? st : nullptr;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (skip(rs[i])) continue;
    RequestImpl& impl = reqs_.get(rs[i]);
    if (!impl.settled()) continue;
    if (first != nullptr && *first < 0) *first = static_cast<int>(i);
    if (some != nullptr) some->push_back(static_cast<int>(i));
    if (impl.inactive()) {  // trivially complete, empty status
      if (out != nullptr) *out = Status{};
    } else {
      if (out != nullptr) *out = impl.status;
      san::mpi_complete(rank_, impl.idx);  // verify checksum, drop registration
      if (impl.persistent) {
        impl.complete = impl.p_started = false;  // inactive, ready to Start
      } else {
        reqs_.release(impl);
      }
    }
    if (need != Need::kOne || !impl.persistent) rs[i] = kRequestNull;
    if (need == Need::kAny) break;
  }
  return true;
}

// ------------------------------------------------------------ public API ----

Request RankCtx::isend(const void* buf, std::size_t count, Datatype dt, int dst,
                       int tag, Comm comm) {
  MpiEntry entry(*this, "Isend");
  const CommInfo& ci = comms_.get(comm);
  if (dst == kProcNull) {
    RequestImpl& r = reqs_.alloc();
    r.kind = ReqKind::kSendEager;
    r.complete = true;
    return Request{r.idx};
  }
  Request rq = isend_internal(buf, count * datatype_size(dt), ci.to_global(dst),
                              ci.context, tag, comm);
  progress_poll();  // an MPI entry is a progress opportunity
  return rq;
}

Request RankCtx::irecv(void* buf, std::size_t count, Datatype dt, int src,
                       int tag, Comm comm) {
  MpiEntry entry(*this, "Irecv");
  const CommInfo& ci = comms_.get(comm);
  if (src == kProcNull) {
    RequestImpl& r = reqs_.alloc();
    r.kind = ReqKind::kRecv;
    r.complete = true;
    r.status = Status{kProcNull, kAnyTag, 0};
    return Request{r.idx};
  }
  const int src_global = (src == kAnySource) ? kAnySource : ci.to_global(src);
  Request rq = irecv_internal(buf, count * datatype_size(dt), src_global,
                              ci.context, tag, comm);
  progress_poll();
  return rq;
}

void RankCtx::send(const void* buf, std::size_t count, Datatype dt, int dst,
                   int tag, Comm comm) {
  Request r = isend(buf, count, dt, dst, tag, comm);
  wait(r);
}

void RankCtx::recv(void* buf, std::size_t count, Datatype dt, int src, int tag,
                   Comm comm, Status* st) {
  Request r = irecv(buf, count, dt, src, tag, comm);
  wait(r, st);
}

bool RankCtx::test(Request& r, Status* st) {
  return complete("Test", {&r, 1}, Need::kOne, /*block=*/false, st);
}

void RankCtx::wait(Request& r, Status* st) {
  complete("Wait", {&r, 1}, Need::kOne, /*block=*/true, st);
}

void RankCtx::waitall(std::span<Request> rs) {
  complete("Waitall", rs, Need::kAll, /*block=*/true);
}

int RankCtx::waitany(std::span<Request> rs, Status* st) {
  int index = -1;
  complete("Waitany", rs, Need::kAny, /*block=*/true, st, &index);
  return index;
}

bool RankCtx::testany(std::span<Request> rs, int* index, Status* st) {
  if (rs.empty()) {
    // MPI_Testany(0, ...): flag = true, index = MPI_UNDEFINED — and no call
    // overhead, matching implementations that short-circuit before entry.
    *index = -1;
    return true;
  }
  return complete("Testany", rs, Need::kAny, /*block=*/false, st, index);
}

bool RankCtx::testall(std::span<Request> rs) {
  return complete("Testall", rs, Need::kAll, /*block=*/false);
}

std::vector<int> RankCtx::waitsome(std::span<Request> rs) {
  std::vector<int> done;
  if (rs.empty()) return done;  // MPI_Waitsome(0, ...): no entry overhead
  complete("Waitsome", rs, Need::kSome, /*block=*/true, nullptr, nullptr,
           &done);
  return done;
}

Request RankCtx::send_init(const void* buf, std::size_t count, Datatype dt,
                           int dst, int tag, Comm comm) {
  // The envelope keeps one buffer pointer; a send only ever reads through it.
  return persistent_init("Send_init", /*send=*/true, const_cast<void*>(buf),
                         count * datatype_size(dt), dst, tag, comm);
}

Request RankCtx::recv_init(void* buf, std::size_t count, Datatype dt, int src,
                           int tag, Comm comm) {
  return persistent_init("Recv_init", /*send=*/false, buf,
                         count * datatype_size(dt), src, tag, comm);
}

Request RankCtx::persistent_init(const char* call, bool send, void* buf,
                                 std::size_t bytes, int peer, int tag,
                                 Comm comm) {
  MpiEntry entry(*this, call);
  const CommInfo& ci = comms_.get(comm);
  RequestImpl& r = reqs_.alloc();
  r.persistent = true;
  r.p_send = send;
  r.p_buf = buf;
  r.p_bytes = bytes;
  const bool wildcard = peer == kProcNull || (!send && peer == kAnySource);
  r.p_peer = wildcard ? peer : ci.to_global(peer);
  r.p_ctx = ci.context;
  r.p_tag = tag;
  r.p_comm = comm;
  return Request{r.idx};
}

void RankCtx::start(Request r) { start_all("Start", {&r, 1}); }

void RankCtx::startall(std::span<Request> rs) {
  if (rs.empty()) return;  // MPI_Startall(0, ...): no entry overhead
  start_all("Startall", rs);
}

void RankCtx::start_all(const char* call, std::span<Request> rs) {
  MpiEntry entry(*this, call, &profile().persist_start);
  for (Request& r : rs) {
    if (r.is_null()) {
      san::mpi_persist_misuse(rank_, call, "null request");
      throw std::logic_error(std::string("MPI_") + call +
                             " on the null request");
    }
    if (!san::mpi_handle_ok(rank_, r.idx, reqs_.get(r).active, call)) {
      throw std::logic_error(std::string("MPI_") + call +
                             " on a freed request handle");
    }
    start_internal(reqs_.get(r));
  }
  // Deliberately no progress_poll: Start is the thin re-arm path — that the
  // entry stays cheap is the point of persistent requests.
}

void RankCtx::request_free(Request& r) {
  MpiEntry entry(*this, "Request_free");
  if (r.is_null()) return;
  if (!san::mpi_handle_ok(rank_, r.idx, reqs_.get(r).active, "Request_free")) {
    r = kRequestNull;
    return;
  }
  RequestImpl& impl = reqs_.get(r);
  if (!impl.persistent) {
    san::mpi_persist_misuse(rank_, "Request_free",
                            "request is not persistent");
    throw std::logic_error("MPI_Request_free: request is not persistent");
  }
  if (impl.p_started && !impl.complete) {
    san::mpi_persist_misuse(rank_, "Request_free", "generation in flight");
    throw std::logic_error("MPI_Request_free: generation still in flight");
  }
  if (impl.p_started && impl.complete) san::mpi_complete(rank_, impl.idx);
  reqs_.release(impl);
  r = kRequestNull;
}

void RankCtx::sendrecv(const void* sbuf, std::size_t scount, int dst, int stag,
                       void* rbuf, std::size_t rcount, int src, int rtag,
                       Datatype dt, Comm comm, Status* st) {
  Request rr = irecv(rbuf, rcount, dt, src, rtag, comm);
  Request rs = isend(sbuf, scount, dt, dst, stag, comm);
  wait(rr, st);
  wait(rs);
}

bool RankCtx::iprobe(int src, int tag, Comm comm, Status* st) {
  MpiEntry entry(*this, "Iprobe");
  progress_poll();
  const CommInfo& ci = comms_.get(comm);
  const int src_global = (src == kAnySource) ? kAnySource : ci.to_global(src);
  const UnexpectedMsg* m = match_.peek_unexpected(ci.context, src_global, tag);
  if (m == nullptr) return false;
  if (st != nullptr) {
    st->source = ci.from_global(m->env.src_global);
    st->tag = m->env.tag;
    st->bytes = m->bytes;
  }
  return true;
}

void RankCtx::probe(int src, int tag, Comm comm, Status* st) {
  MpiEntry entry(*this, "Probe");
  const CommInfo& ci = comms_.get(comm);
  const int src_global = (src == kAnySource) ? kAnySource : ci.to_global(src);
  const UnexpectedMsg* found = nullptr;
  wait_until(entry, [&] {
    found = match_.peek_unexpected(ci.context, src_global, tag);
    return found != nullptr;
  });
  if (st != nullptr) {
    st->source = ci.from_global(found->env.src_global);
    st->tag = found->env.tag;
    st->bytes = found->bytes;
  }
}

void RankCtx::progress() {
  MpiEntry entry(*this, "Progress");
  progress_poll();
}

Comm RankCtx::comm_dup(Comm parent) {
  // Collective by MPI rules; synchronize like a barrier so no rank races
  // ahead and sends on the new context before everyone constructed it.
  barrier(parent);
  MpiEntry entry(*this, "Comm_dup");
  return comms_.dup(parent);
}

Comm RankCtx::comm_split(Comm parent, int color, int key) {
  // Exchange (color,key) of every member, then compute the split locally.
  const CommInfo& ci = comms_.get(parent);
  std::vector<std::pair<int, int>> color_key(
      static_cast<std::size_t>(ci.size()));
  std::pair<int, int> mine{color, key};
  static_assert(sizeof(std::pair<int, int>) == 2 * sizeof(int));
  allgather(&mine, color_key.data(), 2, Datatype::kInt, parent);
  MpiEntry entry(*this, "Comm_split");
  return comms_.split(parent, color_key);
}

void RankCtx::comm_free(Comm c) {
  MpiEntry entry(*this, "Comm_free");
  comms_.free(c);
}

}  // namespace smpi
