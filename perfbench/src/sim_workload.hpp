// The pass loop shared by the three simulation workloads.
//
// A pass builds a world (set-up), simulates its fixed virtual window in
// 1-virtual-second chunks (run) and reads its outputs before tearing it
// down (teardown).  One chunk is a simulation workload's "op": op_p50_ms
// and op_p90_ms are host milliseconds per simulated second.
//
// A World provides:
//   using Outputs = ...;                 // with std::string digest() const
//   void run_until(TimePoint t);
//   std::vector<const ethergrid::sim::Kernel*> kernels() const;
//   Outputs finish();                    // read outputs, shut down, export
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "sim/kernel.hpp"
#include "util/time.hpp"

namespace perfbench {

inline constexpr ethergrid::Duration kChunk = ethergrid::sec(1);

template <class Outputs>
struct SimPass {
  PassTimes times;
  std::vector<double> chunk_ms;
  std::vector<double> live_min_us;  // traced passes only
  Outputs outputs;
};

// Runs one pass.  With `spans`, records the pass's spans and times
// Kernel::next_live_event_time() on every kernel at each chunk boundary.
template <class World>
SimPass<typename World::Outputs> run_sim_pass(
    const std::function<std::unique_ptr<World>()>& build,
    ethergrid::Duration window, SpanRecorder* spans) {
  using ethergrid::kEpoch;
  using ethergrid::TimePoint;
  SimPass<typename World::Outputs> pass;
  SpanRecorder::Scope pass_span(spans, "pass");
  auto t0 = SteadyClock::now();
  std::unique_ptr<World> world;
  {
    SpanRecorder::Scope s(spans, "setup");
    world = build();
  }
  pass.times.setup_s = seconds_since(t0);
  t0 = SteadyClock::now();
  {
    SpanRecorder::Scope run_span(spans, "run");
    for (TimePoint t = kEpoch + kChunk; t <= kEpoch + window; t += kChunk) {
      const auto c0 = SteadyClock::now();
      {
        SpanRecorder::Scope s(spans, "sim.run_until");
        world->run_until(t);
      }
      pass.chunk_ms.push_back(seconds_since(c0) * 1e3);
      if (!spans) continue;
      for (const ethergrid::sim::Kernel* kernel : world->kernels()) {
        SpanRecorder::Scope s(spans, "sim.kernel.live_min");
        const auto l0 = SteadyClock::now();
        (void)kernel->next_live_event_time();
        pass.live_min_us.push_back(seconds_since(l0) * 1e6);
      }
    }
  }
  pass.times.run_s = seconds_since(t0);
  t0 = SteadyClock::now();
  {
    SpanRecorder::Scope s(spans, "teardown");
    pass.outputs = world->finish();
    world.reset();
  }
  pass.times.teardown_s = seconds_since(t0);
  return pass;
}

// Worlds built and dropped unrun at the start of an untraced run, so that
// setup_s is a median over many builds even when a pass takes seconds.
inline constexpr int kExtraSetups = 10;

// The untraced run: passes until opts.seconds have elapsed (at least
// three), end-to-end metrics from their medians, one digest per pass.
template <class World>
Result run_sim_untraced(const Options& opts,
                        const std::function<std::unique_ptr<World>()>& build,
                        ethergrid::Duration window) {
  Result result;
  std::vector<PassTimes> times;
  std::vector<double> chunk_ms, ops_per_s, extra_setup_s;
  const auto start = SteadyClock::now();
  for (int i = 0; i < kExtraSetups; ++i) {
    const auto t0 = SteadyClock::now();
    std::unique_ptr<World> world = build();
    extra_setup_s.push_back(seconds_since(t0));
  }
  while (keep_going(times.size(), 3, start, opts.seconds)) {
    auto pass = run_sim_pass<World>(build, window, nullptr);
    times.push_back(pass.times);
    chunk_ms.insert(chunk_ms.end(), pass.chunk_ms.begin(),
                    pass.chunk_ms.end());
    ops_per_s.push_back(double(pass.chunk_ms.size()) / pass.times.run_s);
    result.digests.push_back(pass.outputs.digest());
  }
  result.attempted = times.size();
  fill_end_to_end(result, times, std::move(extra_setup_s), chunk_ms,
                  ops_per_s);
  return result;
}

// The traced run's core: after one warm-up pass (the first world a
// process builds pays its page faults), alternates untraced and traced
// passes for `seconds` (at least one each), so the tracing overhead
// compares passes taken under the same machine conditions.
template <class World>
struct TracedPasses {
  std::vector<double> plain_run_s;
  std::vector<double> traced_run_s;
  std::vector<double> traced_setup_s;
  std::vector<double> live_min_us;
  SimPass<typename World::Outputs> last;  // the last traced pass
};

template <class World>
TracedPasses<World> run_sim_traced(
    const std::function<std::unique_ptr<World>()>& build,
    ethergrid::Duration window, double seconds, SpanRecorder& spans,
    Result& result) {
  TracedPasses<World> out;
  result.digests.push_back(
      run_sim_pass<World>(build, window, nullptr).outputs.digest());
  const auto start = SteadyClock::now();
  while (keep_going(out.traced_run_s.size(), 1, start, seconds)) {
    auto plain = run_sim_pass<World>(build, window, nullptr);
    out.plain_run_s.push_back(plain.times.run_s);
    result.digests.push_back(plain.outputs.digest());
    out.last = run_sim_pass<World>(build, window, &spans);
    out.traced_run_s.push_back(out.last.times.run_s);
    out.traced_setup_s.push_back(out.last.times.setup_s);
    out.live_min_us.insert(out.live_min_us.end(),
                           out.last.live_min_us.begin(),
                           out.last.live_min_us.end());
    result.digests.push_back(out.last.outputs.digest());
  }
  return out;
}

}  // namespace perfbench
