// Typed counter handles bound to one (pid, series-name) pair.
//
//   Counter — monotonic accumulator (events processed, stalls, bytes);
//   Gauge   — instantaneous level (ring occupancy, in-flight operations).
//
// Both keep their live value even while tracing is disabled (reads are free
// and tests/stat trailers use them); they only *emit* a counter sample when
// the tracer is enabled, so the disabled cost is an add/store plus the usual
// one-branch check. Each handle owns its series name (the tracer copies it
// into every sample anyway), so callers may build names on the fly.
#pragma once

#include <string>
#include <utility>

#include "trace/scope.hpp"
#include "trace/tracer.hpp"

namespace trace {

class Counter {
 public:
  Counter(int pid, std::string name) : pid_(pid), name_(std::move(name)) {}

  void add(double d = 1) {
    value_ += d;
    if (!Tracer::on()) return;
    Tracer::instance().counter(ambient_ts(), pid_, name_, value_);
  }

  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  int pid_;
  std::string name_;
  double value_ = 0;
};

class Gauge {
 public:
  Gauge(int pid, std::string name) : pid_(pid), name_(std::move(name)) {}

  void set(double v) {
    value_ = v;
    if (!Tracer::on()) return;
    Tracer::instance().counter(ambient_ts(), pid_, name_, value_);
  }

  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  int pid_;
  std::string name_;
  double value_ = 0;
};

}  // namespace trace
