// Virtual-time tracing: a process-wide event recorder.
//
// The Tracer collects *spans* (begin/end or complete, timestamped in
// virtual nanoseconds, one track per (pid, tid)) and *counters* (sampled
// numeric series) and serializes them as Chrome trace-event JSON
// (chrome_writer.hpp) loadable in Perfetto / chrome://tracing.
//
// Conventions used throughout this repo:
//   pid = simulated MPI rank  (−1 for process-global series),
//   tid = fiber id + 1        (0 is the "hw" track: NIC delivery, DMA),
//   plus the reserved NIC egress/ingress tids below.
//
// This header depends on nothing but the standard library so the sim layer
// itself can be instrumented (trace sits *below* sim in the link order;
// trace/scope.hpp adds the sim-aware conveniences for everything above).
//
// Cost contract: every recording entry point is inline and starts with
// `if (!on_) return;` — a disabled tracer costs one predictable branch and
// leaves virtual time untouched (the tracer never advances the clock, so
// enabling it cannot change simulated results either).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace trace {

/// Reserved tids for hardware tracks (fiber tids are id+1 and stay tiny).
constexpr std::uint64_t kHwTid = 0;                ///< scheduler-context events
constexpr std::uint64_t kNicTxTid = 1u << 20;      ///< NIC egress serialization
constexpr std::uint64_t kNicRxTid = (1u << 20) + 1;  ///< NIC ingress

/// One trace event. `ph` follows the Chrome trace-event phases we emit:
/// 'B'/'E' duration begin/end, 'X' complete, 'i' instant, 'C' counter.
struct Event {
  char ph = 'i';
  int pid = 0;
  std::uint64_t tid = 0;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;  ///< 'X' only
  double value = 0;         ///< 'C' only
  std::string name;
  const char* cat = "";     ///< static-storage category string
};

class Tracer {
 public:
  /// The process-wide tracer.
  static Tracer& instance();

  /// Fast enabled check for call sites (one load + branch when off).
  [[nodiscard]] static bool on() { return on_; }
  static void set_enabled(bool e) { on_ = e; }

  // ---- recording (all no-ops while disabled) ----

  void begin(std::int64_t ts_ns, int pid, std::uint64_t tid, std::string name,
             const char* cat) {
    if (!on_) return;
    push(Event{'B', pid, tid, ts_ns, 0, 0, std::move(name), cat});
  }
  void end(std::int64_t ts_ns, int pid, std::uint64_t tid) {
    if (!on_) return;
    push(Event{'E', pid, tid, ts_ns, 0, 0, {}, ""});
  }
  void complete(std::int64_t ts_ns, std::int64_t dur_ns, int pid,
                std::uint64_t tid, std::string name, const char* cat) {
    if (!on_) return;
    push(Event{'X', pid, tid, ts_ns, dur_ns, 0, std::move(name), cat});
  }
  void instant(std::int64_t ts_ns, int pid, std::uint64_t tid,
               std::string name, const char* cat) {
    if (!on_) return;
    push(Event{'i', pid, tid, ts_ns, 0, 0, std::move(name), cat});
  }
  void counter(std::int64_t ts_ns, int pid, std::string name, double value) {
    if (!on_) return;
    push(Event{'C', pid, kHwTid, ts_ns, 0, value, std::move(name), ""});
  }

  /// Track metadata. Recorded even while disabled (bounded: one entry per
  /// track) so tracks registered before enable() still get names.
  void name_process(int pid, std::string name);
  void name_thread(int pid, std::uint64_t tid, std::string name);

  // ---- inspection / output ----

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] const std::map<int, std::string>& process_names() const {
    return process_names_;
  }
  [[nodiscard]] const std::map<std::pair<int, std::uint64_t>, std::string>&
  thread_names() const {
    return thread_names_;
  }
  /// Events discarded because the in-memory limit was reached.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Cap on retained events (drops, deterministically, beyond it).
  void set_limit(std::size_t n) { limit_ = n; }
  [[nodiscard]] std::size_t limit() const { return limit_; }

  /// Serialize everything recorded so far as Chrome trace JSON.
  void write_json(std::ostream& os) const;
  /// write_json to `path`; returns false (and keeps the events) on I/O error.
  bool write_file(const std::string& path) const;

  /// Drop all recorded events and track names (enabled state unchanged).
  void clear();

 private:
  Tracer();

  void push(Event&& e) {
    if (events_.size() >= limit_) {
      ++dropped_;
      return;
    }
    events_.push_back(std::move(e));
  }

  inline static bool on_ = false;
  std::size_t limit_;
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, std::uint64_t>, std::string> thread_names_;
};

}  // namespace trace
