// Command — the one description of an MPI call on all four approaches.
// Proxy's front end builds every op as a Command and issue_call turns it into
// the rank call: on the calling thread for the direct approaches, from the
// engine fiber after the ring or lane hand-off under offload.
#pragma once

#include <cstdint>

#include "mpi/rank_ctx.hpp"
#include "mpi/types.hpp"

namespace core {

enum class CmdOp : std::uint8_t {
  kShutdown,
  kIsend,
  kIrecv,
  kIbarrier,
  kIbcast,
  kIreduce,
  kIallreduce,
  kIalltoall,
  kIallgather,
  kWinCreate,
  kWinFree,
  kPut,
  kGet,
  kIfence,
  /// Re-arm a persistent offload request: `count` carries the channel's
  /// persistent-slot index, nothing else — the envelope already lives in the
  /// engine's slot, which is why this command is cheap to publish
  /// (Profile::cmd_enqueue_persist).
  kStartPersistent,
  /// Tear down a persistent slot's MPI-level requests and release its pool
  /// slot; `count` carries the persistent-slot index. Ring FIFO guarantees
  /// it runs after every start of that slot.
  kFreePersistent,
};

/// Stable display name for a command opcode (trace span labels, logs).
constexpr const char* cmd_op_name(CmdOp op) {
  switch (op) {
    case CmdOp::kShutdown:   return "cmd:shutdown";
    case CmdOp::kIsend:      return "cmd:isend";
    case CmdOp::kIrecv:      return "cmd:irecv";
    case CmdOp::kIbarrier:   return "cmd:ibarrier";
    case CmdOp::kIbcast:     return "cmd:ibcast";
    case CmdOp::kIreduce:    return "cmd:ireduce";
    case CmdOp::kIallreduce: return "cmd:iallreduce";
    case CmdOp::kIalltoall:  return "cmd:ialltoall";
    case CmdOp::kIallgather: return "cmd:iallgather";
    case CmdOp::kWinCreate:  return "cmd:win-create";
    case CmdOp::kWinFree:    return "cmd:win-free";
    case CmdOp::kPut:        return "cmd:put";
    case CmdOp::kGet:        return "cmd:get";
    case CmdOp::kIfence:     return "cmd:ifence";
    case CmdOp::kStartPersistent: return "cmd:start-persistent";
    case CmdOp::kFreePersistent:  return "cmd:free-persistent";
  }
  return "cmd:?";
}

/// One offloaded MPI call, parameters serialized into a flat struct (the
/// paper's "call-specific structure"). `proxy` is the RequestPool slot whose
/// done flag signals completion back to the application thread.
struct Command {
  CmdOp op = CmdOp::kShutdown;
  std::uint32_t proxy = 0;
  const void* sbuf = nullptr;
  void* rbuf = nullptr;
  std::uint64_t count = 0;
  smpi::Datatype dtype = smpi::Datatype::kByte;
  smpi::Op rop = smpi::Op::kSum;
  int peer = -1;  ///< dst/src/root/target depending on op
  int tag = 0;
  smpi::Comm comm = smpi::kCommWorld;
  // ---- RMA ----
  smpi::Win win{};
  smpi::Win* win_out = nullptr;  ///< result slot for kWinCreate
  std::uint64_t offset = 0;      ///< target window offset
};

/// Make the MPI call `cmd` describes on `rc`. Returns its request, or a null
/// request for ops that finish inline (window management, put, get). Throws
/// std::logic_error on the channel's own ops (shutdown, persistent start/free).
smpi::Request issue_call(smpi::RankCtx& rc, const Command& cmd);

}  // namespace core
