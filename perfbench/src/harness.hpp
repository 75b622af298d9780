// Shared plumbing of the benchmark binary: options, the per-run result and
// its JSON rendering, host timing, and the build/host manifest.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // how long the measured loop runs
  bool trace = false;   // traced run: per-layer metrics instead of e2e
  std::string trace_out;  // Chrome-trace JSON of the benchmark's spans
};

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  // values it summarises (0 = a single reading)
};

struct Result {
  // Attempts: simulation passes, or scripts for ftsh-posix.
  std::size_t attempted = 0;
  // Attempts whose output the workload itself found wrong (ftsh-posix).
  // Simulation passes are judged by run.py against reference digests.
  std::size_t failed = 0;
  std::vector<std::string> digests;  // one per simulation pass
  std::vector<std::string> errors;   // failed in-run cross-checks
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;  // manifest and notes, printed
};

// Each workload: runs for opts.seconds and fills the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
Result run_sharded_submit(const Options& opts);
Result run_kernel_churn(const Options& opts);
Result run_scripted_grid(const Options& opts);
Result run_ftsh_posix(const Options& opts);

// Every per-layer metric name with its unit.  A traced run reports all of
// them; layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

// Sets result.metrics[name] (the unit comes from layer_metric_units()).
inline void put_layer(Result& result, const std::string& name, double value,
                      std::size_t samples = 0) {
  result.metrics[name].value = value;
  result.metrics[name].samples = samples;
}

// Host-time triple of one pass of a workload.
struct PassTimes {
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;
};

// Fills setup_s / run_s / teardown_s (medians over the passes; setup_s also
// over `extra_setup_s`), peak_rss_mb and the op_* metrics from per-op host
// latencies (milliseconds) and per-pass op throughput.
void fill_end_to_end(Result& result, const std::vector<PassTimes>& passes,
                     std::vector<double> extra_setup_s,
                     const std::vector<double>& op_ms,
                     const std::vector<double>& ops_per_s);

// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string digest_hex(const std::string& text);

// Writes the spans to opts.trace_out (when set) and returns their totals.
std::map<std::string, SpanTotals> export_spans(const SpanRecorder& spans,
                                               const Options& opts);

// Whether to run another pass: at least `min_passes`, then until `seconds`
// have elapsed since `start`.
inline bool keep_going(std::size_t passes, std::size_t min_passes,
                       SteadyClock::time_point start, double seconds) {
  return passes < min_passes || seconds_since(start) < seconds;
}

std::string result_json(const Options& opts, const Result& result);

}  // namespace perfbench
