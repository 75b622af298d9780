#include "harness.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// All the digits of a measurement (the obs helper rounds to 6 decimals).
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sim.kernel.events", "count"},
      {"sim.kernel.events_per_s", "1/s"},
      {"sim.kernel.queue_depth", "count"},
      {"sim.kernel.live_procs", "count"},
      {"sim.kernel.pooled_stacks", "count"},
      {"sim.kernel.live_min_us", "us"},
      {"sim.shard.windows", "count"},
      {"sim.shard.msgs", "count"},
      {"sim.shard.us_per_window", "us"},
      {"sim.shard.imbalance", "ratio"},
      {"sim.shard.speedup", "ratio"},
      {"sim.fluid.reshares", "count"},
      {"sim.fluid.transfers", "count"},
      {"sim.fluid.aborted", "count"},
      {"sim.fluid.useful_ratio", "ratio"},
      {"grid.jobs", "count"},
      {"grid.crashes", "count"},
      {"grid.files", "count"},
      {"grid.bulk_bytes", "B"},
      {"core.attempts", "count"},
      {"core.deferrals", "count"},
      {"core.collisions", "count"},
      {"core.faults", "count"},
      {"core.useful_ratio", "ratio"},
      {"shell.scripts", "count"},
      {"shell.commands", "count"},
      {"shell.parse_us", "us"},
      {"shell.self_us_per_cmd", "us"},
      {"posix.cmd_p50_us", "us"},
      {"posix.cmd_p90_us", "us"},
      {"posix.forall_p50_ms", "ms"},
      {"posix.kill_p50_ms", "ms"},
      {"posix.timeout_overshoot_p50_ms", "ms"},
      {"obs.spans", "count"},
      {"obs.overhead_pct", "%"},
      {"obs.export_s", "s"},
      {"obs.export_mb", "MB"},
      {"exp.setup_us_per_client", "us"},
      {"bench.trace_overhead_pct", "%"},
  };
  return units;
}

void fill_end_to_end(Result& result, const std::vector<PassTimes>& passes,
                     std::vector<double> extra_setup_s,
                     const std::vector<double>& op_ms,
                     const std::vector<double>& ops_per_s) {
  std::vector<double>& setup = extra_setup_s;
  std::vector<double> run, teardown;
  for (const PassTimes& p : passes) {
    std::fprintf(stderr, "perfbench: pass %zu setup %.4f s run %.4f s "
                 "teardown %.4f s\n", run.size() + 1, p.setup_s, p.run_s,
                 p.teardown_s);
    setup.push_back(p.setup_s);
    run.push_back(p.run_s);
    teardown.push_back(p.teardown_s);
  }
  auto put = [&](const char* name, Percentile p, const char* unit) {
    result.metrics[name] = Metric{p.value, unit, p.samples};
  };
  put("setup_s", median(setup), "s");
  put("run_s", median(run), "s");
  put("teardown_s", median(teardown), "s");
  put("op_p50_ms", percentile(op_ms, 0.5), "ms");
  put("op_p90_ms", percentile(op_ms, 0.9), "ms");
  // A tail percentile is worth reporting with at least ten samples beyond.
  result.info["op_p90_samples_beyond"] =
      std::to_string(samples_beyond(op_ms, 0.9));
  put("ops_per_s", median(ops_per_s), "1/s");
  result.metrics["peak_rss_mb"] = Metric{peak_rss_mb(), "MB", 0};
}

std::string digest_hex(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                (unsigned long long)ethergrid::fnv1a64(text));
  return buf;
}

std::map<std::string, SpanTotals> export_spans(const SpanRecorder& spans,
                                               const Options& opts) {
  if (!opts.trace_out.empty()) {
    std::ofstream(opts.trace_out) << spans.chrome_trace_json();
  }
  return totals_by_name(spans.spans());
}

std::string result_json(const Options& opts, const Result& result) {
  using ethergrid::obs::json_escape;
  std::string out = "{\"workload\":\"" + json_escape(opts.workload) + "\"";
  out += ",\"seed\":" + std::to_string(opts.seed);
  out += ",\"trace\":" + std::string(opts.trace ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"digests\":[";
  for (std::size_t i = 0; i < result.digests.size(); ++i) {
    if (i) out += ',';
    out += "\"" + result.digests[i] + "\"";
  }
  out += "],\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i) out += ',';
    out += "\"" + json_escape(result.errors[i]) + "\"";
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(name) + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + json_escape(m.unit) +
           "\",\"samples\":" + std::to_string(m.samples) + "}";
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [key, value] : result.info) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
