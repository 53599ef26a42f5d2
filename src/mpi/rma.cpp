// One-sided communication (RMA): MPI_Put / MPI_Get / MPI_Win_fence.
//
// This implements the paper's stated future work ("explore efficient
// implementations of other MPI operations, including RMA") on the same
// simulated fabric: puts and gets are true RDMA — the target's CPU is never
// involved — and the fence is exposed both in its blocking MPI form and as
// a nonblocking `ifence` (a gated collective schedule). The latter is what
// lets the offload engine handle fences without stalling its command queue,
// addressing the Section-3.3 caveat that MPI_WIN_FENCE has no nonblocking
// equivalent.
#include <cassert>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "mpi/cluster.hpp"
#include "mpi/entry.hpp"
#include "mpi/rank_ctx.hpp"
#include "mpi/wire.hpp"

namespace smpi {

Win RankCtx::win_create(void* base, std::size_t bytes, Comm comm) {
  // Collective: synchronize so no rank targets a window that does not exist
  // everywhere yet. The id derivation matches across ranks because window
  // creations on a communicator are ordered.
  barrier(comm);
  MpiEntry entry(*this, "Win_create");
  CommInfo& ci = comms_.get(comm);
  WinInfo w;
  w.base = base;
  w.bytes = bytes;
  w.comm = comm;
  w.id = ci.context * 256 + ci.win_seq++;
  wins_.push_back(w);
  return Win{static_cast<int>(wins_.size() - 1)};
}

void RankCtx::win_free(Win w) {
  WinInfo& wi = wins_.at(static_cast<std::size_t>(w.idx));
  win_fence(w);  // complete all traffic before teardown
  wi.freed = true;
}

void RankCtx::put(const void* origin, std::size_t bytes, int target_rank,
                  std::size_t target_offset, Win w) {
  MpiEntry entry(*this, "Put");
  WinInfo& wi = wins_.at(static_cast<std::size_t>(w.idx));
  if (wi.freed) throw std::invalid_argument("put on freed window");
  if (target_offset + bytes > wi.bytes) {
    throw std::out_of_range("put outside target window");
  }
  const CommInfo& ci = comms_.get(wi.comm);
  sim::advance(profile().nic_doorbell);
  machine::NetMessage m;
  m.src = rank_;
  m.dst = ci.to_global(target_rank);
  m.kind = kWireRmaPut;
  m.h0 = wi.id;
  m.h1 = reinterpret_cast<std::uint64_t>(origin);
  m.h2 = target_offset;
  m.h3 = bytes;
  m.wire_bytes = bytes;
  ++wi.outstanding;
  net_send(std::move(m));
  progress_poll();
}

void RankCtx::get(void* origin, std::size_t bytes, int target_rank,
                  std::size_t target_offset, Win w) {
  MpiEntry entry(*this, "Get");
  WinInfo& wi = wins_.at(static_cast<std::size_t>(w.idx));
  if (wi.freed) throw std::invalid_argument("get on freed window");
  if (target_offset + bytes > wi.bytes) {
    throw std::out_of_range("get outside target window");
  }
  const CommInfo& ci = comms_.get(wi.comm);
  sim::advance(profile().nic_doorbell);
  machine::NetMessage m;
  m.src = rank_;
  m.dst = ci.to_global(target_rank);
  m.kind = kWireRmaGetReq;
  m.h0 = wi.id;
  m.h1 = reinterpret_cast<std::uint64_t>(origin);
  m.h2 = target_offset;
  m.h3 = bytes;
  ++wi.outstanding;
  net_send(std::move(m));
  progress_poll();
}

Request RankCtx::ifence(Win w) {
  MpiEntry entry(*this, "Ifence");
  WinInfo& wi = wins_.at(static_cast<std::size_t>(w.idx));
  CommInfo& ci = comms_.get(wi.comm);
  const int p = ci.size();
  auto op = std::make_unique<CollOp>();
  op->comm = wi.comm;
  op->seq = ci.coll_seq++;
  op->kind = CollectiveId::kFence;
  op->algo = coll_tuner().choose(CollectiveId::kFence, 0, 0, p, true);
  // Gate: hold the synchronization until my own RMA has fully drained. The
  // gate covers every chain (none posts before it opens).
  const int widx = w.idx;
  op->gate = [widx](RankCtx& rc) {
    return rc.wins_.at(static_cast<std::size_t>(widx)).outstanding == 0;
  };
  // Dissemination barrier stages over the window's communicator.
  CollChain& ch = op->chain(0);
  const int me = ci.my_rank;
  for (int k = 1; k < p; k <<= 1) {
    CollStage st;
    op->temps.emplace_back(1);
    op->temps.emplace_back(1);
    st.sends.push_back({(me + k) % p, op->temps[op->temps.size() - 2].data(), 1});
    st.recvs.push_back({(me - k + p) % p, op->temps.back().data(), 1});
    ch.stages.push_back(std::move(st));
  }
  return start_collective(std::move(op));
}

void RankCtx::win_fence(Win w) {
  Request r = ifence(w);
  wait(r);
}

/// Hardware-side handling of RMA wire traffic (called from deliver()).
bool RankCtx::rma_deliver(machine::NetMessage& m) {
  RankCtx& self = *this;
  auto find_win = [](RankCtx& rc, std::uint32_t id) -> RankCtx::WinInfo* {
    for (auto& w : rc.wins_) {
      if (w.id == id && !w.freed) return &w;
    }
    return nullptr;
  };
  switch (m.kind) {
    case kWireRmaPut: {
      RankCtx::WinInfo* w = find_win(self, static_cast<std::uint32_t>(m.h0));
      if (w == nullptr) throw std::logic_error("RMA put to unknown window");
      if (w->base != nullptr && m.h1 != 0) {
        std::memcpy(static_cast<std::byte*>(w->base) + m.h2,
                    reinterpret_cast<const void*>(m.h1), m.h3);
      }
      self.arrivals_.signal();
      // Origin-side NIC completion.
      RankCtx& origin = self.cluster_.rank(m.src);
      if (RankCtx::WinInfo* ow = find_win(origin, static_cast<std::uint32_t>(m.h0))) {
        --ow->outstanding;
      }
      origin.arrivals_.signal();
      return true;
    }
    case kWireRmaGetReq: {
      RankCtx::WinInfo* w = find_win(self, static_cast<std::uint32_t>(m.h0));
      if (w == nullptr) throw std::logic_error("RMA get from unknown window");
      // RDMA read: the target NIC streams the data back without CPU help.
      machine::NetMessage resp;
      resp.src = self.rank();
      resp.dst = m.src;
      resp.kind = kWireRmaGetResp;
      resp.h0 = m.h0;
      resp.h1 = w->base == nullptr
                    ? 0
                    : reinterpret_cast<std::uint64_t>(
                          static_cast<std::byte*>(w->base) + m.h2);
      resp.h2 = m.h1;  // origin buffer
      resp.h3 = m.h3;
      resp.wire_bytes = m.h3;
      // Scheduler context is fine: net_send stamps and queues but never
      // advances the virtual clock (the NIC answers the RDMA read itself).
      self.net_send(std::move(resp));
      return true;
    }
    case kWireRmaGetResp: {
      if (m.h2 != 0 && m.h1 != 0) {
        std::memcpy(reinterpret_cast<void*>(m.h2),
                    reinterpret_cast<const void*>(m.h1), m.h3);
      }
      if (RankCtx::WinInfo* w = find_win(self, static_cast<std::uint32_t>(m.h0))) {
        --w->outstanding;
      }
      self.arrivals_.signal();
      return true;
    }
    default:
      return false;
  }
}

}  // namespace smpi
