// The MPI offload engine (paper Section 3).
//
// One or more dedicated fibers per rank — "the offload proxies" — are the
// only execution contexts that ever enter the MPI library. Application
// threads interact with them exclusively through:
//   * sharded per-(thread, engine) SPSC submission lanes (the fast path:
//     each submitting fiber owns a private lane per engine, so concurrent
//     submitters never touch each other's cache lines),
//   * per-engine lock-free MPSC command rings (fallback when lanes are
//     disabled or more fibers submit than lanes exist; producers contend on
//     a ring's tail cache line, modeled by a mutex charging
//     Profile::mpsc_line_transfer per acquisition),
//   * the shared lock-free request pool (completion flags).
//
// Multi-proxy sharding (ProxyOptions::proxy_count, default one per NUMA
// domain): commands are partitioned across engines by a peer/communicator
// hash (engine_of) so everything whose relative order MPI matching can
// observe — sends to one peer on one communicator, receives for one
// envelope, collectives on one communicator — lands in ONE engine's queues
// and is issued in submission order. Each engine owns a DrainClaim covering
// its lane column + ring; an idle engine may steal up to
// ProxyOptions::steal_bound commands from a sibling per pass by taking that
// sibling's claim, which both serializes the single-consumer pop protocols
// and carries the happens-before edge for the lanes' consumer-side state
// (see core/drain_claim.hpp). The claim is held across the whole pop+issue
// sequence: issuing yields, and releasing in between would let two engines
// interleave same-envelope traffic out of posted order.
//
// Engine loop (each engine fiber):
//   1. claim own queues; drain own lane column round-robin, at most
//      ProxyOptions::lane_drain_bound commands per lane per pass (the
//      fairness bound: a saturating lane cannot starve its neighbours or
//      postpone the progress pass), then drain own ring; release;
//   2. drive progress on own in-flight operations with MPI_Testany,
//      publishing done flags as they complete and queueing any armed
//      continuations (cont_table.hpp), then run up to
//      ProxyOptions::cont_run_bound of those callbacks — callbacks may post
//      follow-ups, which issue directly instead of re-entering the ring;
//   3. if that found nothing, try one bounded steal pass from a busy
//      sibling;
//   4. when nothing is pending, wait adaptively: spin-poll a few times
//      (cheapest wake), then yield the core a few times, then block on the
//      rank's doorbell — after snapshotting the doorbell and re-checking
//      every queue, so a command published between the last empty poll and
//      the sleep transition can never be stranded.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/command.hpp"
#include "core/cont_table.hpp"
#include "core/drain_claim.hpp"
#include "core/mpsc_ring.hpp"
#include "core/part_ready.hpp"
#include "core/proxy_options.hpp"
#include "core/request_pool.hpp"
#include "core/spsc_lane.hpp"
#include "mpi/rank_ctx.hpp"
#include "sim/sync.hpp"
#include "trace/counters.hpp"

namespace core {

/// A completion continuation. Runs exactly once with the request's Status;
/// may post follow-up nonblocking operations and attach further
/// continuations, but must never block (the offload engine enforces this:
/// a blocking wait from engine context throws).
using ContFn = std::function<void(const smpi::Status&)>;

struct OffloadStats {
  std::uint64_t commands = 0;
  std::uint64_t testany_calls = 0;
  std::uint64_t completions = 0;
  std::uint64_t max_inflight = 0;
  std::uint64_t ring_full_stalls = 0;  ///< submit spun on a full shared ring
  std::uint64_t pool_full_stalls = 0;  ///< submit waited on an exhausted pool
  /// In-flight requests seen exceeding ProxyOptions::watchdog_budget
  /// (counted once per request; diagnostic only, never alters timing).
  std::uint64_t watchdog_flags = 0;
  // ---- submission front-end ----
  std::uint64_t lane_submits = 0;    ///< commands entering via a SPSC lane
  std::uint64_t shared_submits = 0;  ///< commands entering via a shared ring
                                     ///  because lanes are disabled
  /// Commands from fibers that could not bind a lane (more submitters than
  /// lanes) and fell back to a shared ring. Kept out of shared_submits so
  /// the lane trailer's per-lane throughput is not inflated by overflow
  /// traffic that never touched a lane.
  std::uint64_t overflow_submits = 0;
  std::uint64_t batches = 0;         ///< submit_batch publishes
  std::uint64_t batched_commands = 0;  ///< commands carried by those batches
  std::uint64_t lane_full_stalls = 0;  ///< producer spun on its full lane
  // ---- multi-proxy work stealing ----
  std::uint64_t steal_rounds = 0;    ///< passes that stole from some sibling
  std::uint64_t steal_commands = 0;  ///< commands drained from a sibling
  // ---- adaptive engine wait policy ----
  std::uint64_t engine_spins = 0;   ///< idle spin polls
  std::uint64_t engine_yields = 0;  ///< idle yield polls
  std::uint64_t engine_sleeps = 0;  ///< doorbell blocks
  // ---- continuation subsystem ----
  std::uint64_t cont_armed = 0;     ///< continuations attached before completion
  std::uint64_t cont_inline = 0;    ///< attach found the request already done
  std::uint64_t cont_executed = 0;  ///< callbacks run by the engine
  std::uint64_t cont_deferred = 0;  ///< ready callbacks pushed past a pass
                                    ///  by the cont_run bound (cumulative)
  std::uint64_t cont_posts = 0;     ///< commands posted from engine context
};

/// The rank-level persistent request(s) behind one persistent request: one
/// send_init/recv_init handle for a plain request, or one byte-slice handle
/// per partition under its partition wire tag (wildcard receives can never
/// match those frames — matching.cpp rejects tag-bit-30). The direct
/// backends create them at init; the offload engines on the first start.
struct PersistentMpi {
  smpi::Request req{};               ///< plain: the one rank-level request
  std::vector<smpi::Request> parts;  ///< partitioned: one per partition

  /// Create them for `env`, the equivalent one-shot kIsend/kIrecv command.
  static PersistentMpi create(smpi::RankCtx& rc, const Command& env,
                              std::uint32_t partitions);
  [[nodiscard]] bool empty() const { return req.is_null() && parts.empty(); }
  void release(smpi::RankCtx& rc);
};

/// Per-lane occupancy/batching counters (see OffloadChannel::lane_stats).
struct LaneStats {
  std::uint64_t submits = 0;          ///< commands pushed (incl. batched)
  std::uint64_t batches = 0;          ///< batched publishes into this lane
  std::uint64_t batched_commands = 0; ///< commands carried by those batches
  std::uint64_t full_stalls = 0;      ///< producer spun on the full lane
  std::uint64_t max_occupancy = 0;    ///< high-water mark of queued commands
  std::uint64_t drained = 0;          ///< commands popped by an engine
};

/// Shared state between application threads and the offload engines of one
/// rank. Application-facing calls live in OffloadProxy (core/proxy.hpp);
/// this class is the engine side plus the submission primitives.
class OffloadChannel {
 public:
  explicit OffloadChannel(smpi::RankCtx& rc, const ProxyOptions& opts = {});

  smpi::RankCtx& rank_ctx() { return rc_; }
  RequestPool& pool() { return pool_; }
  [[nodiscard]] const RequestPool& pool() const { return pool_; }
  [[nodiscard]] const OffloadStats& stats() const { return stats_; }
  [[nodiscard]] const ProxyOptions& options() const { return opts_; }
  /// Offload engine fibers serving this channel.
  [[nodiscard]] std::size_t engine_count() const { return engines_.size(); }
  /// Total lanes in the grid (lane rows x engines; one row per submitter).
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  [[nodiscard]] const LaneStats& lane_stats(std::size_t i) const {
    return lanes_[i]->stats;
  }
  /// Signalled whenever an engine publishes a done flag (or a waiter frees
  /// a slot); exposed so the proxy's waitany/testall can sleep on it.
  sim::Notifier& completions() { return completions_; }

  // ---------------- application side ----------------

  /// Serialize + enqueue; returns the proxy request slot. Charges the
  /// enqueue cost; spins (virtually) if the lane/ring is momentarily full.
  std::uint32_t submit(Command cmd);

  /// Enqueue a whole batch through the caller's lanes with one publish and
  /// ONE doorbell per engine touched, writing each command's allocated
  /// proxy slot back into `cmds[i].proxy`. The first command pays the full
  /// cmd_enqueue cost, subsequent ones only Profile::cmd_enqueue_batch.
  /// FIFO order within the batch is preserved per engine (and engine_of
  /// keeps everything order-sensitive on one engine). Falls back to the
  /// shared rings (still one tail-line transfer per engine run) when the
  /// caller has no lane.
  void submit_batch(std::span<Command> cmds);

  /// Spin on the done flag of `proxy` (the paper's optimized MPI_Wait: no
  /// MPI call, just a flag check). Frees the slot unless `keep` (the pinned
  /// slot of a persistent request).
  void wait_done(std::uint32_t proxy, smpi::Status* st = nullptr,
                 bool keep = false);

  /// Nonblocking flag check; frees the slot when done, unless `keep`.
  bool test_done(std::uint32_t proxy, smpi::Status* st = nullptr,
                 bool keep = false);

  /// Consume the completion of slot `proxy`, whose done flag the caller has
  /// seen set: acquire the flag (Status/payload visible), copy the Status
  /// out, and — unless `keep` (a persistent request's pinned slot) — charge
  /// the pool op and return the slot to the pool. Does not signal
  /// completions(): a caller releasing a batch signals once for all of it
  /// (a freed slot may unblock a pool-exhausted submit).
  void release_slot(std::uint32_t proxy, smpi::Status* st, bool keep);

  /// Bind `fn` to run exactly once when `proxy` completes. Consumes the
  /// slot: the side that runs the callback frees it, so the caller must not
  /// wait on or test the slot afterwards. When the request already
  /// completed, the callback runs inline on the calling thread (returns
  /// true); otherwise the discovering engine runs it from its completion
  /// pass (returns false). Continuations may submit follow-up work — from
  /// engine context such posts bypass the lanes/rings and issue directly,
  /// so a full ring can never deadlock a posting callback.
  bool attach_continuation(std::uint32_t proxy, ContFn fn);

  /// True when the calling fiber is ONE OF the offload engines
  /// (continuation callbacks run there). Blocking completion calls are
  /// illegal in that context and throw. Identity is per-fiber, not a global
  /// "engine is running" bit: application fibers interleaving with a
  /// blocked engine must keep taking the lane/ring path.
  [[nodiscard]] bool in_engine() const {
    return engine_for_current_fiber() != nullptr;
  }

  // ---------------- persistent / partitioned requests ----------------
  // The mechanics under OffloadProxy's persistent backend hooks; the proxy
  // front end (core/proxy.hpp) has already validated every call. A
  // persistent offload request pins one RequestPool slot for its whole
  // lifetime and keeps its envelope in an engine-side PersistSlot; every
  // re-arm publishes only the slot index (CmdOp::kStartPersistent, charged
  // at Profile::cmd_enqueue_persist instead of a full enqueue). Partitioned
  // sends additionally carry a per-partition ready word the engines poll:
  // pready(p) from any compute fiber publishes one bit, and the engine that
  // owns partition p (partition-hash sharding) ships it while sibling
  // partitions are still computing. Completion is the pinned slot's done
  // flag: wait_done/test_done/attach_continuation with the slot kept — the
  // continuation paths consult slot_persist_ to keep it themselves.

  /// Register a persistent envelope. `cmd` is the equivalent one-shot
  /// kIsend/kIrecv command (buffer/count/dtype/peer/tag/comm); `partitions`
  /// 0 = plain persistent, else the partition count. Returns the channel's
  /// persistent-slot index.
  std::uint32_t persist_init(const Command& cmd, std::uint32_t partitions);
  /// Re-arm the pinned slot and publish one generation.
  void persist_start(std::uint32_t idx);
  /// Publish partitions [lo, hi] of a started partitioned send as ready.
  /// Callable from any compute fiber.
  void persist_pready(std::uint32_t idx, std::uint32_t lo, std::uint32_t hi);
  /// Tear down: the engine frees the MPI-level requests and the pool slot
  /// (ring FIFO runs it after every prior start).
  void persist_free(std::uint32_t idx);
  /// The pool slot a persistent request pins.
  [[nodiscard]] std::uint32_t persist_pool_slot(std::uint32_t idx) const {
    return persist_.at(idx)->proxy;
  }

  /// Enqueue one shutdown command per engine (each engine exits after
  /// draining its lanes, its ring, its in-flight requests, and its
  /// continuation queue).
  void shutdown();

  // ---------------- engine side ----------------

  /// Body of offload fiber `idx` (one per ProxyOptions::proxy_count).
  /// Re-entering an engine whose previous run never cleared its identity
  /// throws — a recycled fiber pointer must never inherit engine identity.
  void engine_main(std::size_t idx = 0);

 private:
  struct Lane {
    Lane(std::size_t capacity, int rank, std::size_t index)
        : ring(capacity),
          gauge(rank, "lane" + std::to_string(index) + "_occupancy") {}
    SpscLane<Command> ring;
    LaneStats stats;
    int owner_slot = -1;  ///< thread-registry slot bound to this lane row
    trace::Gauge gauge;
  };

  struct Inflight {
    smpi::Request real;
    std::uint32_t proxy;
    sim::Time issued_at;   ///< for the stuck-request watchdog
    bool flagged = false;  ///< already reported by the watchdog
    /// Persistent-slot index + 1 when this in-flight is one generation (or
    /// one partition) of a persistent request; 0 for one-shot requests. A
    /// persistent completion decrements the slot's `remaining` instead of
    /// completing the proxy slot directly.
    std::uint32_t persist = 0;
  };

  /// Engine-side home of one persistent request. Envelope fields are written
  /// once at init; generation state (armed/shipped/remaining, the lazily
  /// created MPI requests) is touched only from engine context; `ready` is
  /// the one lock-free handoff (see core/part_ready.hpp). Lives in a deque:
  /// stable addresses, slots are never reused within a run.
  struct PersistSlot {
    // ---- envelope (init-time) ----
    Command env;  ///< the equivalent one-shot kIsend/kIrecv command
    std::uint32_t partitions = 0;  ///< 0 = plain persistent
    std::uint32_t proxy = 0;       ///< pool slot pinned for the lifetime
    std::size_t home_engine = 0;   ///< engine_of of the equivalent one-shot
    /// Partition-ready words, bit p%64 of word p/64 (partitioned sends).
    std::vector<PartReadyWord> ready;
    // ---- engine side ----
    PersistentMpi mpi;  ///< created lazily by the first start
    std::vector<std::uint64_t> shipped;  ///< mirror mask: partitions issued
    std::uint32_t remaining = 0;  ///< parts of this generation still in flight
    bool armed = false;  ///< partitioned send: generation open for shipping
  };

  /// One engine fiber's private state. Everything here is touched only by
  /// the fiber currently acting as this engine's consumer: the owner, or a
  /// thief holding `claim` (queues), or the owning fiber itself (inflight
  /// tracking, cont_ready — a thief issues stolen commands into ITS OWN
  /// Engine, never the victim's).
  struct Engine {
    Engine(std::size_t ring_capacity, smpi::RankCtx& rc, std::size_t idx)
        : index(idx),
          ring(ring_capacity),
          tail_line(rc.profile().mpsc_line_transfer),
          g_ring(rc.rank(), idx == 0 ? std::string("ring_occupancy")
                                     : "ring" + std::to_string(idx) +
                                           "_occupancy"),
          g_inflight(rc.rank(), idx == 0 ? std::string("inflight")
                                         : "inflight" + std::to_string(idx)) {}

    std::size_t index;
    MpscRing<Command> ring;
    /// Models this ring's tail cache line: producers pushing to it
    /// serialize here, each paying Profile::mpsc_line_transfer. Lane
    /// submitters never touch it — that is the point of the lanes.
    sim::Mutex tail_line;
    /// Consumer-ownership token over this engine's lane column + ring.
    DrainClaim claim;
    /// Fired slots whose callbacks this engine still owes. Bounded per pass
    /// by ProxyOptions::cont_run_bound so a burst of completions cannot
    /// starve the drain/testany loop.
    std::deque<std::uint32_t> cont_ready;
    /// In-flight tracking, kept incrementally: inflight and scratch_reqs
    /// are parallel arrays appended by issue(). A completion nulls its
    /// scratch_reqs entry in place (testany does this as a side effect), so
    /// the Testany span never has to be rebuilt and FIFO scan order — hence
    /// completion fairness — is preserved. Dead slots are reclaimed lazily
    /// by compact_inflight() once they outnumber live ones.
    std::vector<Inflight> inflight;
    std::vector<smpi::Request> scratch_reqs;
    std::size_t live_inflight = 0;
    std::size_t drain_cursor = 0;  ///< round-robin fairness cursor
    sim::Time next_watchdog_scan{0};
    /// This engine's fiber, set for the whole lifetime of engine_main:
    /// submits from it (continuation callbacks) take the direct-issue path
    /// and blocking waits from it are errors. Compared against the CURRENT
    /// fiber — other fibers interleave whenever the engine blocks. Cleared
    /// on EVERY exit path (RAII in engine_main), clean or unwinding.
    sim::Fiber* fiber = nullptr;
    trace::Gauge g_ring;
    trace::Gauge g_inflight;
  };

  /// Which engine's queues carry `cmd`. Peer/communicator hash, chosen so
  /// per-envelope order survives sharding (see DESIGN.md §15): sends and
  /// specific receives go by (peer, comm); wildcard receives pin their
  /// communicator to hash(comm) — and stick: later receives on that
  /// communicator follow, so a wildcard can never overtake (or be overtaken
  /// by) a same-communicator receive posted around it; collectives and
  /// window management go by comm; RMA by window.
  std::size_t engine_of(const Command& cmd);

  /// The caller's lane for `engine_idx`, binding a lane row on first use.
  /// nullptr = shared ring; `overflow` reports WHY (true = more submitting
  /// fibers than lane rows, false = lanes disabled).
  Lane* lane_for_caller(std::size_t engine_idx, bool& overflow);
  /// Allocate a pool slot for engine `e`'s post, or for an application post
  /// when `e` is null. On exhaustion an application fiber waits for a waiter
  /// to free a slot; an engine drives progress instead (it can never block
  /// on its own completions notifier).
  std::uint32_t alloc_slot(Engine* e = nullptr);
  /// Engine-context submit: no lane/ring, no doorbell — the command issues
  /// directly on the posting engine. Used by continuations posting
  /// follow-ups.
  std::uint32_t submit_from_engine(Engine& e, Command cmd);
  /// The one publish primitive: push `cmds`, in order, onto engine `eidx`'s
  /// queues — the caller's lane when it has one, else that engine's shared
  /// ring (serialized on its tail line) — spinning while the queue is full.
  /// Keeps the lane/ring occupancy and the lane/shared/overflow submit
  /// accounting. A `control` publish (shutdown) always takes the ring and
  /// counts as no submission. Returns the lane used, nullptr for the ring.
  /// Does not ring the doorbell.
  Lane* publish(std::size_t eidx, std::span<Command> cmds,
                bool control = false);
  /// Publish `cmd` to engine `eidx` and ring the doorbell. The
  /// slot-allocation-free tail of submit(): persistent starts/frees arrive
  /// here with their pool slot already pinned.
  void push_to_engine(std::size_t eidx, Command cmd);
  /// Publish kStartPersistent/kFreePersistent for persistent slot `idx`
  /// (issued in place from engine context).
  void publish_persist(CmdOp op, std::uint32_t idx);
  /// Run the callback of fired slot `proxy` under trace span `span`,
  /// recycling its continuation state and returning the slot to the pool
  /// first unless a persistent request pins it.
  void run_fired(std::uint32_t proxy, const char* span);

  /// The Engine owned by the calling fiber, or nullptr.
  [[nodiscard]] Engine* engine_for_current_fiber() const;

  void issue(Engine& e, const Command& cmd);
  void track_inflight(Engine& e, smpi::Request real, std::uint32_t proxy,
                      std::uint32_t persist = 0);
  // ---- persistent engine side ----
  /// Process kStartPersistent: lazily create the MPI-level persistent
  /// request(s), then start (plain / partitioned recv) or arm for shipping
  /// (partitioned send).
  void engine_start_persistent(Engine& e, std::uint32_t idx);
  /// Process kFreePersistent: free the MPI-level requests and the pool slot.
  void engine_free_persistent(Engine& e, std::uint32_t idx);
  /// Ship every ready-but-unshipped partition owned by engine `e`
  /// (partition-hash sharding: disjoint per-engine sets, so sibling engines
  /// never race on a partition). Returns true when anything shipped.
  bool pump_persistent(Engine& e);
  /// Engine `e` owns partition `p` of slot `ps`.
  [[nodiscard]] std::size_t partition_engine(const PersistSlot& ps,
                                             std::uint32_t p) const;
  /// The lowest ready-but-unshipped partition in word `w` of `ps` that
  /// engine `e` owns, or -1.
  [[nodiscard]] int owned_ready(const Engine& e, const PersistSlot& ps,
                                std::size_t w) const;
  /// A ready-but-unshipped partition owned by `e` exists: the engine must
  /// not sleep past it (pready rings the rank doorbell, and this is the
  /// matching pre-sleep re-check).
  [[nodiscard]] bool persistent_ready_pending(const Engine& e) const;
  /// Publish a completion: done flag, stats, doorbell — and hand the slot
  /// to the discovering engine's continuation queue when one is armed.
  void complete_slot(Engine& e, std::uint32_t proxy, const smpi::Status& st);
  /// The one drain primitive: pop at most `limit` commands from `lane`, or from
  /// `owner`'s ring when `lane` is null, and issue each on `e` (the engine
  /// doing the work, which tracks the resulting in-flights). Contract: the
  /// caller holds `owner.claim` (as owner or thief) across the whole call —
  /// pops and the issues they feed must not interleave with another consumer
  /// of the same queues. Returns how many were popped; sets `shutdown` when
  /// one of them was a shutdown.
  std::size_t drain_queue(Engine& e, Engine& owner, Lane* lane,
                          std::size_t limit, bool& shutdown);
  /// One round-robin pass over `e`'s lane column, at most
  /// ProxyOptions::lane_drain_bound commands per lane. Caller holds e.claim.
  bool drain_lanes_round(Engine& e);
  /// One bounded steal pass: take one busy sibling's claim, drain at most
  /// ProxyOptions::steal_bound of its commands (issued as OUR in-flights),
  /// release, and re-ring the doorbell if leftovers remain.
  bool steal_round(Engine& e);
  void process_command(Engine& e, const Command& cmd);
  /// This engine's own backlog (its lane column + its ring).
  [[nodiscard]] bool submissions_pending(const Engine& e) const;
  /// True when stealing is enabled and some OTHER engine has a backlog: an
  /// idle engine must keep polling (and retrying the steal) instead of
  /// sleeping — nothing rings our doorbell for a sibling's queue.
  [[nodiscard]] bool steal_work_available(const Engine& e) const;
  void drive_progress(Engine& e);
  /// Run up to ProxyOptions::cont_run_bound queued continuations; returns
  /// true when any ran (the engine re-drains before sleeping: callbacks
  /// post). Leftovers count into cont_deferred and run next pass.
  bool run_continuations(Engine& e);
  void compact_inflight(Engine& e);
  void watchdog_scan(Engine& e);

  smpi::RankCtx& rc_;
  ProxyOptions opts_;
  RequestPool pool_;
  /// The engines (unique_ptr: rings, claim and tail line are immovable, and
  /// their addresses are the sanitizer's channel identities).
  std::vector<std::unique_ptr<Engine>> engines_;
  /// Sharded per-(thread, engine) submission lanes, a row-major grid:
  /// lanes_[row * engines_.size() + engine]. A submitting fiber binds a row
  /// on first use; engine e drains column e. (unique_ptr: a lane's address
  /// is its sanitizer channel identity.)
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::uint32_t> lane_of_slot_;  ///< thread slot -> lane row
  std::size_t next_lane_ = 0;                ///< next unbound lane row
  /// Communicators pinned to hash(comm) routing because a wildcard receive
  /// was posted on them (sticky; see engine_of).
  std::vector<int> wildcard_comms_;
  /// Persistent slots, by index (deque: stable addresses; never reused
  /// within a run — persistent requests are long-lived by design).
  std::deque<std::unique_ptr<PersistSlot>> persist_;
  /// Pool slot -> persistent index + 1 (0 = one-shot). The continuation
  /// paths consult this to keep instead of free a persistent slot.
  std::vector<std::uint32_t> slot_persist_;
  /// Armed partitioned sends (fast-path gate for pump_persistent).
  std::size_t armed_psends_ = 0;
  /// Signalled by an engine whenever it publishes a done flag; application
  /// waiters use it to model their done-flag spin loop without event spam.
  sim::Notifier completions_;
  bool shutdown_requested_ = false;

  // ---- continuation subsystem ----
  /// Exactly-once arm/fire handoff, one slot per pool slot.
  ContTable cont_;
  /// Callback records, indexed by pool slot. Published to the engine by the
  /// arm() claim's release; read under the fire()-failure acquire.
  std::vector<ContFn> cont_fns_;

  OffloadStats stats_;
};

}  // namespace core
