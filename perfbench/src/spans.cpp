#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

// Spans this thread has open, innermost last.  One recorder is live at a
// time in the benchmark, so a plain thread-local stack suffices.
thread_local std::vector<std::int64_t> tls_open;

}  // namespace

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint32_t SpanRecorder::thread_lane() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] =
      lanes_.emplace(key, std::uint32_t(lanes_.size() + 1));
  return it->second;
}

std::int64_t SpanRecorder::begin(std::string name, std::int64_t parent) {
  const double start = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  if (parent == kCurrent) {
    parent = tls_open.empty() ? fallback_parent_ : tls_open.back();
  }
  const std::int64_t id = std::int64_t(spans_.size());
  spans_.push_back(Span{std::move(name), start, start, parent, thread_lane()});
  tls_open.push_back(id);
  return id;
}

void SpanRecorder::end(std::int64_t id) {
  const double end = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[std::size_t(id)].end_us = end;
  const auto it = std::find(tls_open.rbegin(), tls_open.rend(), id);
  if (it != tls_open.rend()) tls_open.erase(std::next(it).base());
}

void SpanRecorder::set_fallback_parent(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  fallback_parent_ = id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::chrome_trace_json() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times_us(all);
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i) out += ',';
    out += "{\"name\":\"" + ethergrid::obs::json_escape(s.name) +
           "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%zu,\"parent\":%lld,\"self_us\":%.3f}}",
                  s.start_us, s.end_us - s.start_us, s.thread, i,
                  (long long)s.parent, self[i]);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && std::size_t(p) < spans.size()) {
      children[std::size_t(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (std::size_t c : children[i]) {
      const double a = std::max(spans[c].start_us, s.start_us);
      const double b = std::min(spans[c].end_us, s.end_us);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    double run_start = 0;
    double run_end = -1;
    for (const auto& [a, b] : cover) {
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_us += spans[i].end_us - spans[i].start_us;
    t.self_us += self[i];
  }
  return totals;
}

}  // namespace perfbench
