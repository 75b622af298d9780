// In-memory span recorder for the traced run.
//
// A span is one call from the benchmark into a layer of the program: a name
// ("sim.kernel.live_min", "posix.cmd", ...), a host-time start and end, and
// the span that caused it.  Spans are recorded only around calls the
// benchmark itself makes, never inside the program, and kept in memory
// until the run ends; then they are written out as Chrome-trace JSON
// (chrome://tracing, ui.perfetto.dev) and reduced to per-name totals.
//
// A span's self time is its duration minus the part of its interval that
// its children cover.  Children may overlap (forall branches on threads),
// so coverage is the length of the union of their intervals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0;  // host time since the recorder was created
  double end_us = 0;
  std::int64_t parent = -1;  // index into the recorder's spans, -1 = root
  std::uint32_t thread = 0;  // small per-thread lane number
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span under `parent`; kCurrent means the innermost span this
  // thread has open (or `fallback_parent` when it has none).  Returns its
  // id.  Thread-safe.
  static constexpr std::int64_t kCurrent = -2;
  std::int64_t begin(std::string name, std::int64_t parent = kCurrent);
  void end(std::int64_t id);

  // Spans a thread opens without an open span of its own attach here (the
  // forall span, for commands run on branch threads).
  void set_fallback_parent(std::int64_t id);

  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name,
          std::int64_t parent = kCurrent)
        : recorder_(recorder),
          id_(recorder ? recorder->begin(std::move(name), parent) : -1) {}
    ~Scope() {
      if (recorder_) recorder_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    SpanRecorder* recorder_;
    std::int64_t id_;
  };

  std::vector<Span> spans() const;
  std::string chrome_trace_json() const;

 private:
  double now_us() const;
  std::uint32_t thread_lane();

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t fallback_parent_ = -1;
  std::map<std::uint64_t, std::uint32_t> lanes_;
};

// Self time of each span, index-aligned with `spans`.
std::vector<double> self_times_us(const std::vector<Span>& spans);

struct SpanTotals {
  std::size_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

// Count, total duration and total self time per span name.
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
