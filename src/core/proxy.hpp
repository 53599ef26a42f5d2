// Proxy — one interface, four communication approaches (paper Sections 2-3).
//
// Applications and benchmarks are written once against Proxy; selecting the
// approach at run time reproduces the paper's property that no application
// change is needed (the paper uses LD_PRELOAD interposition; we own the MPI
// library, so a vtable stands in for the PLT).
//
//   baseline  — direct MPI calls from the application thread(s).
//   iprobe    — baseline + progress_hint() mapped to MPI_Iprobe (the
//               PROGRESS macro of Listing 1).
//   comm-self — spawns a progress thread blocked in MPI_Recv on a duplicated
//               COMM_SELF; requires MPI_THREAD_MULTIPLE.
//   offload   — the paper's contribution: all calls serialized to the
//               dedicated offload thread via the lock-free command ring.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/offload_engine.hpp"
#include "mpi/rank_ctx.hpp"
#include "mpi/types.hpp"

namespace core {

/// Approach selector.
enum class Approach : std::uint8_t {
  kBaseline,
  kIprobe,
  kCommSelf,
  kOffload,
};

const char* approach_name(Approach a);
/// Parse "baseline" / "iprobe" / "commself" / "offload".
Approach approach_from_string(const std::string& s);
/// Thread level the underlying MPI must be initialized with.
smpi::ThreadLevel required_thread_level(Approach a);

/// Proxy-level request handle. Meaning is proxy-specific (real smpi request
/// index for direct proxies; RequestPool slot + 1 for offload). Zero is the
/// null handle for every proxy — a default-constructed PReq is null, and
/// completion calls null handles they release, so waiting twice is safe.
struct PReq {
  std::uint64_t v = 0;
  [[nodiscard]] bool is_null() const { return v == 0; }
};

/// Persistent (init-once/start-many) request handle. Unlike PReq, completion
/// calls do NOT consume it: wait/test return it to the inactive state, ready
/// for the next start(); only request_free() retires it. The value is the
/// index + 1 of the request's record in the Proxy front end, on every
/// approach; zero is the null handle.
struct PersistentReq {
  std::uint64_t v = 0;
  [[nodiscard]] bool is_null() const { return v == 0; }
};

/// Lifecycle of a persistent request. kInactive -> kStarted at start();
/// kStarted -> kInactive when the completion is consumed (wait/test or a
/// fired continuation); kFreed is terminal.
enum class PState : std::uint8_t { kInactive, kStarted, kFreed };

/// One operation of a batched nonblocking post (Proxy::post_batch). Only
/// point-to-point ops batch: that is the halo-exchange shape the batching
/// path exists for (N posts -> one lane publish + one doorbell). A
/// kStartPersistent entry re-arms an initialized persistent request in the
/// same group; its `out` slot stays null (the persistent handle itself is
/// how the caller waits).
struct BatchOp {
  CmdOp op = CmdOp::kIsend;  ///< kIsend, kIrecv, or kStartPersistent
  const void* sbuf = nullptr;
  void* rbuf = nullptr;
  std::size_t count = 0;
  smpi::Datatype dtype = smpi::Datatype::kByte;
  int peer = -1;
  int tag = 0;
  smpi::Comm comm = smpi::kCommWorld;
  std::uint64_t persist = 0;  ///< PersistentReq::v for kStartPersistent

  static BatchOp isend(const void* b, std::size_t n, smpi::Datatype dt,
                       int dst, int tag, smpi::Comm c = smpi::kCommWorld) {
    BatchOp o;
    o.op = CmdOp::kIsend;
    o.sbuf = b;
    o.count = n;
    o.dtype = dt;
    o.peer = dst;
    o.tag = tag;
    o.comm = c;
    return o;
  }
  static BatchOp irecv(void* b, std::size_t n, smpi::Datatype dt, int src,
                       int tag, smpi::Comm c = smpi::kCommWorld) {
    BatchOp o;
    o.op = CmdOp::kIrecv;
    o.rbuf = b;
    o.count = n;
    o.dtype = dt;
    o.peer = src;
    o.tag = tag;
    o.comm = c;
    return o;
  }
  static BatchOp start(PersistentReq r) {
    BatchOp o;
    o.op = CmdOp::kStartPersistent;
    o.persist = r.v;
    return o;
  }
};

class Proxy {
 public:
  explicit Proxy(smpi::RankCtx& rc) : rc_(rc) {}
  virtual ~Proxy() = default;

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  [[nodiscard]] smpi::RankCtx& rank_ctx() { return rc_; }
  [[nodiscard]] virtual Approach approach() const = 0;

  /// Spawn helper threads (comm-self progress thread / offload engine).
  /// (The old `start()` alias is gone: start(PersistentReq&) begins a
  /// persistent generation, start_engine() starts helper threads.)
  virtual void start_engine() {}
  /// Drain and join helper threads. Must be called before the rank exits.
  virtual void stop() {}

  // ---- point-to-point ----
  // Every MPI op below is built here, once, as a Command and handed to
  // backend_submit; the blocking forms post the nonblocking op and wait.
  virtual PReq isend(const void* b, std::size_t n, smpi::Datatype dt, int dst,
                     int tag, smpi::Comm c = smpi::kCommWorld);
  virtual PReq irecv(void* b, std::size_t n, smpi::Datatype dt, int src,
                     int tag, smpi::Comm c = smpi::kCommWorld);
  virtual void send(const void* b, std::size_t n, smpi::Datatype dt, int dst,
                    int tag, smpi::Comm c = smpi::kCommWorld);
  virtual void recv(void* b, std::size_t n, smpi::Datatype dt, int src, int tag,
                    smpi::Comm c = smpi::kCommWorld, smpi::Status* st = nullptr);

  /// Post a group of nonblocking point-to-point operations; `out[i]`
  /// receives the request for `ops[i]` (spans must be the same length).
  /// Every op is validated before any is posted: a bad group throws with
  /// nothing on the wire and `out` untouched. The default posts one at a
  /// time; the offload proxy serializes whole chunks into its submission
  /// lane with one publish and one doorbell each (ProxyOptions::batch_flush
  /// commands per chunk).
  void post_batch(std::span<const BatchOp> ops, std::span<PReq> out);

  // ---- persistent & partitioned point-to-point (MPI-4 style) ----
  // init-once/start-many: the envelope is registered once, then each
  // generation cycles start -> complete -> (restart | free). Completion
  // calls return the handle to the inactive state instead of consuming it.
  // Partitioned variants split the buffer into `partitions` contiguous byte
  // slices; pready(p), callable from ANY compute fiber, publishes slice p as
  // ready so it can ship while sibling slices are still being computed —
  // under the offload approach the engines poll a per-partition ready word
  // and issue early partitions without the sender ever entering MPI.
  //
  // These calls are the one front end of every approach: they own the
  // request's state, every legality check and the whole-message Status,
  // and reach the approach only through the backend hooks below.

  virtual PersistentReq send_init(const void* b, std::size_t n,
                                  smpi::Datatype dt, int dst, int tag,
                                  smpi::Comm c = smpi::kCommWorld);
  virtual PersistentReq recv_init(void* b, std::size_t n, smpi::Datatype dt,
                                  int src, int tag,
                                  smpi::Comm c = smpi::kCommWorld);
  /// Partitioned send: `partitions` contiguous byte slices of the buffer
  /// (1..kMaxPartitions; tag < kMaxPartBaseTag; a specific peer). Every
  /// generation must mark each partition ready exactly once via pready.
  virtual PersistentReq psend_init(const void* b, std::size_t n,
                                   smpi::Datatype dt, int dst, int tag,
                                   std::uint32_t partitions,
                                   smpi::Comm c = smpi::kCommWorld);
  /// Partitioned receive: posts all partitions at start().
  virtual PersistentReq precv_init(void* b, std::size_t n, smpi::Datatype dt,
                                   int src, int tag, std::uint32_t partitions,
                                   smpi::Comm c = smpi::kCommWorld);
  /// Begin one generation. Throws std::logic_error when the previous
  /// generation's completion has not been consumed or the request was freed.
  virtual void start(PersistentReq& r);
  /// start() every handle in `rs`; an empty span is a no-op.
  virtual void startall(std::span<PersistentReq> rs);
  /// Mark partition `p` of a started partitioned send ready. Throws on
  /// double-mark, on an inactive generation, or on a non-partitioned handle.
  virtual void pready(PersistentReq& r, std::uint32_t p);
  /// pready for every partition in [lo, hi]; a misuse anywhere in the range
  /// throws before any partition is marked.
  virtual void pready_range(PersistentReq& r, std::uint32_t lo,
                            std::uint32_t hi);
  /// Block until the current generation completes; the handle returns to
  /// the inactive state (NOT nulled — start it again or free it). Trivially
  /// complete with an empty Status when no generation is active. Throws when
  /// a partitioned send still has unmarked partitions.
  virtual void wait(PersistentReq& r, smpi::Status* st = nullptr);
  /// Nonblocking wait(PersistentReq&). A partitioned send with unmarked
  /// partitions reports false (it can never complete yet).
  virtual bool test(PersistentReq& r, smpi::Status* st = nullptr);
  /// Retire the request (requires no generation in flight); nulls `r`.
  virtual void request_free(PersistentReq& r);
  /// Bind `fn` to the CURRENT generation's completion. The handle is NOT
  /// consumed: the callback observes the request back in the inactive state
  /// and may start() the next generation from inside itself. A partitioned
  /// send must have every partition marked first.
  virtual void attach_continuation(PersistentReq& r, ContFn fn);

  // ---- completion ----
  virtual void wait(PReq& r, smpi::Status* st = nullptr) = 0;
  virtual bool test(PReq& r, smpi::Status* st = nullptr) = 0;
  virtual void waitall(std::span<PReq> rs) = 0;
  /// MPI_Waitany: block until some active request completes, release it,
  /// null its entry, and return its index; -1 when every entry is null.
  virtual int waitany(std::span<PReq> rs, smpi::Status* st = nullptr) = 0;
  /// MPI_Testall: true iff every active request has completed — then all are
  /// released and nulled; otherwise none are (and true for an all-null span).
  virtual bool testall(std::span<PReq> rs) = 0;

  // ---- continuations (mpi/continuation.hpp wraps these in `.then()`) ----

  /// Bind `fn` to run exactly once when `r` completes, consuming the handle
  /// (it is nulled; do not wait on it afterwards). Who runs the callback is
  /// approach-specific: the offload engine fiber for kOffload, the progress
  /// path (test/progress_hint/cont_wait pumps) for the direct approaches. A
  /// null handle is the released-request case and runs `fn` inline with an
  /// empty Status — attaching twice is as safe as waiting twice. Callbacks
  /// may post follow-ups and attach further continuations but must never
  /// block.
  virtual void attach_continuation(PReq& r, ContFn fn) = 0;

  /// Block until `done()` returns true, driving whatever machinery runs this
  /// proxy's continuations in the meantime. The standard pattern is an
  /// Event/flag that the tail continuation of a graph sets.
  virtual void cont_wait(const std::function<bool()>& done) = 0;

  // ---- collectives ----
  virtual void barrier(smpi::Comm c = smpi::kCommWorld);
  virtual PReq ibarrier(smpi::Comm c = smpi::kCommWorld);
  virtual void bcast(void* b, std::size_t n, smpi::Datatype dt, int root,
                     smpi::Comm c = smpi::kCommWorld);
  virtual PReq ibcast(void* b, std::size_t n, smpi::Datatype dt, int root,
                      smpi::Comm c = smpi::kCommWorld);
  virtual void reduce(const void* s, void* r, std::size_t n, smpi::Datatype dt,
                      smpi::Op op, int root, smpi::Comm c = smpi::kCommWorld);
  virtual PReq ireduce(const void* s, void* r, std::size_t n, smpi::Datatype dt,
                       smpi::Op op, int root, smpi::Comm c = smpi::kCommWorld);
  virtual void allreduce(const void* s, void* r, std::size_t n,
                         smpi::Datatype dt, smpi::Op op,
                         smpi::Comm c = smpi::kCommWorld);
  virtual PReq iallreduce(const void* s, void* r, std::size_t n,
                          smpi::Datatype dt, smpi::Op op,
                          smpi::Comm c = smpi::kCommWorld);
  virtual void alltoall(const void* s, void* r, std::size_t n_per,
                        smpi::Datatype dt, smpi::Comm c = smpi::kCommWorld);
  virtual PReq ialltoall(const void* s, void* r, std::size_t n_per,
                         smpi::Datatype dt, smpi::Comm c = smpi::kCommWorld);
  virtual void allgather(const void* s, void* r, std::size_t n_per,
                         smpi::Datatype dt, smpi::Comm c = smpi::kCommWorld);
  virtual PReq iallgather(const void* s, void* r, std::size_t n_per,
                          smpi::Datatype dt, smpi::Comm c = smpi::kCommWorld);

  // ---- one-sided (RMA) ----
  virtual smpi::Win win_create(void* base, std::size_t bytes,
                               smpi::Comm c = smpi::kCommWorld);
  virtual void win_free(smpi::Win w);
  virtual void put(const void* origin, std::size_t bytes, int target,
                   std::size_t target_offset, smpi::Win w);
  virtual void get(void* origin, std::size_t bytes, int target,
                   std::size_t target_offset, smpi::Win w);
  virtual void fence(smpi::Win w);

  /// Hook the application sprinkles into compute loops (Listing 1's
  /// PROGRESS). No-op except for the iprobe approach.
  virtual void progress_hint() {}

  /// Number of threads left for application compute out of `cores`
  /// (approaches with a dedicated communication thread consume one).
  [[nodiscard]] virtual int compute_threads(int cores) const { return cores; }

  /// Requests still live inside the proxy's own bookkeeping (0 for the
  /// direct approaches, which hand out raw smpi requests). The differential
  /// conformance suite asserts this drains to zero at teardown.
  [[nodiscard]] virtual std::size_t inflight() const { return 0; }

 protected:
  /// Front-end record of one persistent request. Held in a deque: stable
  /// addresses (callers keep a reference across yields, continuation
  /// wrappers capture it), never reused.
  struct PersistentOp {
    PState state = PState::kInactive;
    bool is_send = false;
    std::uint32_t partitions = 0;  ///< 0 = plain persistent
    int peer = -1;
    int tag = 0;                   ///< base tag (partition tags derive)
    std::uint64_t bytes = 0;       ///< whole-message size (Status synth)
    std::uint32_t backend = 0;     ///< the backend's id (backend_init)
    std::vector<bool> marked;      ///< this generation's pready marks
    std::uint32_t marked_count = 0;  ///< partitions marked and handed on

    /// A partitioned send that cannot complete yet: a partition is unmarked.
    [[nodiscard]] bool unmarked() const {
      return is_send && partitions != 0 && marked_count != partitions;
    }
    /// The Status a completed generation reports: a partitioned request
    /// answers for the whole message (its peer, base tag, total bytes); the
    /// per-partition wire tags are an implementation detail.
    [[nodiscard]] smpi::Status whole_message(smpi::Status st) const {
      if (partitions != 0) {
        st.source = peer;
        st.tag = tag;
        st.bytes = bytes;
      }
      return st;
    }
  };

  /// Issue one op built by the front end. Returns its handle, or a null
  /// handle when the op finished inline.
  virtual PReq backend_submit(const Command& cmd) = 0;

  /// Post a validated post_batch group (the default: one op at a time).
  virtual void backend_post_batch(std::span<const BatchOp> ops,
                                  std::span<PReq> out);

  // ---- persistent backend hooks ----
  // Called only once the front end has validated the call and updated the
  // record; they carry the approach's mechanics and no legality checks.
  /// Register an envelope: `env` is the equivalent one-shot kIsend/kIrecv
  /// command, `partitions` 0 for a plain persistent request. Returns the
  /// backend's id for the record.
  virtual std::uint32_t backend_init(const Command& env,
                                     std::uint32_t partitions) = 0;
  /// Begin a generation. A partitioned send only arms: its partitions ship
  /// through backend_ship.
  virtual void backend_arm(const PersistentOp& op) = 0;
  /// Hand partitions [lo, hi] of an armed partitioned send on for shipping.
  virtual void backend_ship(const PersistentOp& op, std::uint32_t lo,
                            std::uint32_t hi) = 0;
  /// Complete the generation: block until it is done, or poll once and
  /// report whether it is. `st` receives the raw Status (a partitioned
  /// request's is ignored: the front end fills source, tag and bytes).
  virtual bool backend_complete(const PersistentOp& op, bool block,
                                smpi::Status* st) = 0;
  /// Release the request (no generation in flight).
  virtual void backend_free(const PersistentOp& op) = 0;
  /// Run `fn` once when the current generation completes, with the raw
  /// Status as for backend_complete.
  virtual void backend_attach(const PersistentOp& op, ContFn fn) = 0;

  smpi::RankCtx& rc_;

 private:
  std::deque<PersistentOp> pops_;
  /// Look up a handle, throwing on null/out-of-range.
  PersistentOp& pop_of(const PersistentReq& r, const char* call);
  PersistentReq persist_register(const Command& env, std::uint32_t partitions);
  /// backend_submit, then wait on the handle unless the op finished inline.
  void submit_and_wait(const Command& cmd);
  void mark_ready(PersistentReq& r, std::uint32_t lo, std::uint32_t hi,
                  const char* call);
  bool complete(PersistentOp& op, bool block, smpi::Status* st);
};

/// Direct-call proxy (baseline); also the base for iprobe and comm-self.
class DirectProxy : public Proxy {
 public:
  using Proxy::Proxy;
  // The PReq overrides below would hide the base's PersistentReq overloads
  // (which serve the direct approaches as-is) — keep both visible.
  using Proxy::wait;
  using Proxy::test;
  using Proxy::attach_continuation;
  [[nodiscard]] Approach approach() const override { return Approach::kBaseline; }

  void wait(PReq& r, smpi::Status* st = nullptr) override;
  bool test(PReq& r, smpi::Status* st = nullptr) override;
  void waitall(std::span<PReq> rs) override;
  int waitany(std::span<PReq> rs, smpi::Status* st = nullptr) override;
  bool testall(std::span<PReq> rs) override;

  /// Direct approaches have no engine fiber: armed continuations live in a
  /// list the progress path pumps (each pump MPI_Tests the armed requests
  /// and runs the callbacks of completed ones).
  void attach_continuation(PReq& r, ContFn fn) override;
  void cont_wait(const std::function<bool()>& done) override;
  [[nodiscard]] std::size_t inflight() const override {
    return armed_.size();
  }

 protected:
  /// Test each armed request once; run + retire completed ones. Safe against
  /// re-entry (callbacks posting follow-ups or attaching more continuations
  /// land in armed_ and are picked up by the restarted scan).
  void pump_continuations();

  /// The calling thread makes the MPI call itself.
  PReq backend_submit(const Command& cmd) override;

  // Persistent backend: one rc_-level persistent MPI request per request
  // (or per partition). The calling thread enters MPI itself, so a shipped
  // partition goes to the wire right there.
  std::uint32_t backend_init(const Command& env,
                             std::uint32_t partitions) override;
  void backend_arm(const PersistentOp& op) override;
  void backend_ship(const PersistentOp& op, std::uint32_t lo,
                    std::uint32_t hi) override;
  bool backend_complete(const PersistentOp& op, bool block,
                        smpi::Status* st) override;
  void backend_free(const PersistentOp& op) override;
  void backend_attach(const PersistentOp& op, ContFn fn) override;

 private:
  struct Armed {
    smpi::Request req;
    ContFn fn;
  };
  std::vector<Armed> armed_;
  bool pumping_ = false;
  /// The rc_-level requests behind each persistent request, by backend id
  /// (deque: rc_.wait takes the handle by reference across yields).
  std::deque<PersistentMpi> pmpi_;
};

class IprobeProxy : public DirectProxy {
 public:
  using DirectProxy::DirectProxy;
  [[nodiscard]] Approach approach() const override { return Approach::kIprobe; }
  void progress_hint() override;
};

class CommSelfProxy : public DirectProxy {
 public:
  using DirectProxy::DirectProxy;
  [[nodiscard]] Approach approach() const override { return Approach::kCommSelf; }
  void start_engine() override;
  void stop() override;
  [[nodiscard]] int compute_threads(int cores) const override {
    return cores > 1 ? cores - 1 : cores;
  }

 private:
  smpi::Comm progress_comm_{};
  bool running_ = false;
  char stop_token_ = 0;
  char recv_token_ = 0;
};

class OffloadProxy : public Proxy {
 public:
  // The PReq overrides below would hide the front end's PersistentReq
  // overloads — keep both visible.
  using Proxy::wait;
  using Proxy::test;
  using Proxy::attach_continuation;
  /// Tuning from the machine profile + the MPIOFF_PROXY env spec.
  explicit OffloadProxy(smpi::RankCtx& rc);
  /// Explicit tuning (tests/ablations); the environment is NOT consulted.
  OffloadProxy(smpi::RankCtx& rc, const ProxyOptions& opts);
  [[nodiscard]] Approach approach() const override { return Approach::kOffload; }
  void start_engine() override;
  void stop() override;
  [[nodiscard]] int compute_threads(int cores) const override {
    return cores > 1 ? cores - 1 : cores;
  }
  [[nodiscard]] OffloadChannel& channel() { return channel_; }
  [[nodiscard]] std::size_t inflight() const override {
    return channel_.pool().capacity() - channel_.pool().free_count();
  }

  void wait(PReq& r, smpi::Status* st = nullptr) override;
  bool test(PReq& r, smpi::Status* st = nullptr) override;
  /// Tuned completion surface: one pass over the pool's done flags per wake,
  /// no per-request channel calls.
  void waitall(std::span<PReq> rs) override;
  int waitany(std::span<PReq> rs, smpi::Status* st = nullptr) override;
  bool testall(std::span<PReq> rs) override;

  /// Delegates to OffloadChannel::attach_continuation — the engine fiber
  /// runs the callback from its completion pass (inline here only when the
  /// request already completed).
  void attach_continuation(PReq& r, ContFn fn) override;
  void cont_wait(const std::function<bool()>& done) override;

 protected:
  /// Publishes the command to the engines; the handle is its pool slot.
  PReq backend_submit(const Command& cmd) override;
  void backend_post_batch(std::span<const BatchOp> ops,
                          std::span<PReq> out) override;
  // Persistent backend: the channel's PersistSlots. A start publishes one
  // cheap kStartPersistent command; a shipped partition sets a ready bit
  // the engines poll (early-partition shipping).
  std::uint32_t backend_init(const Command& env,
                             std::uint32_t partitions) override;
  void backend_arm(const PersistentOp& op) override;
  void backend_ship(const PersistentOp& op, std::uint32_t lo,
                    std::uint32_t hi) override;
  bool backend_complete(const PersistentOp& op, bool block,
                        smpi::Status* st) override;
  void backend_free(const PersistentOp& op) override;
  void backend_attach(const PersistentOp& op, ContFn fn) override;

 private:
  OffloadChannel channel_;
  /// One fiber per engine (ProxyOptions::proxy_count), in engine order.
  std::vector<sim::Fiber*> engine_fibers_;
};

/// Factory; caller picks the approach per rank (all ranks should agree).
/// Offload tuning comes from ProxyOptions::from_env (profile defaults +
/// MPIOFF_PROXY); the second overload pins it explicitly instead.
std::unique_ptr<Proxy> make_proxy(Approach a, smpi::RankCtx& rc);
std::unique_ptr<Proxy> make_proxy(Approach a, smpi::RankCtx& rc,
                                  const ProxyOptions& opts);

}  // namespace core
