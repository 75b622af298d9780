// Workload sharded-submit: the fig1 weak-scaled grid on the sharded kernel.
//
// 64 sites x (400 Ethernet submitters + 2 cross-site RPC submitters), 300
// virtual seconds, 4 shards; no observers, no shell.  Chosen because
// sim.shard coordination (the per-window live-min scan over large queues of
// long sleeps) dominates here.
//
// The timed passes run the 4 shards on one thread.  On min(4, nproc)
// threads the same pass is dominated by how fast the host wakes idle
// worker threads at each window's barrier, which on a virtual machine
// varied 1.3-6.5 s between minutes; that is no figure to gate on.  The
// traced run times one pass on min(4, nproc) threads for the speed-up and
// checks that it gives the same per-site jobs.
//
// The world is built here rather than through exp::run_sharded_submit so
// that set-up, the simulated window and teardown are timed apart.  It
// mirrors that runner's world exactly (names, spawn order, placement,
// streams); the traced run checks that both give the same per-site jobs.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/discipline.hpp"
#include "core/sim_clock.hpp"
#include "exp/scenarios.hpp"
#include "grid/clients.hpp"
#include "grid/placement.hpp"
#include "sim/shard.hpp"
#include "sim_workload.hpp"

namespace perfbench {

using namespace ethergrid;

namespace {

constexpr std::size_t kSites = 64;
constexpr int kLocalPerSite = 400;
constexpr int kRemotePerSite = 2;
constexpr std::size_t kShards = 4;
constexpr std::size_t kClients =
    kSites * std::size_t(kLocalPerSite + kRemotePerSite);
constexpr const char* kDiscipline = "ethernet";
const Duration kWindow = sec(300);

std::size_t configured_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(kShards, hw);
}

exp::ShardedSubmitConfig make_config(std::uint64_t seed, std::size_t threads) {
  exp::ShardedSubmitConfig config;
  config.sites = kSites;
  config.submitters_per_site = kLocalPerSite;
  config.remote_per_site = kRemotePerSite;
  config.seed = seed;
  config.sharded.shards = kShards;
  config.sharded.threads = threads;
  // As the fig1 sharded bench: one VMA per 64 stacks, not two per fiber.
  config.sharded.kernel.fiber_stack_slab = 64;
  return config;
}

// Model outputs of one pass, read before teardown.
struct SubmitOutputs {
  std::vector<std::int64_t> site_jobs;
  std::vector<int> site_crashes;
  std::int64_t remote_jobs = 0;
  std::int64_t attempts = 0;
  std::int64_t deferrals = 0;
  std::int64_t collisions = 0;
  std::int64_t successes = 0;
  // Kernel / shard telemetry.
  std::uint64_t events = 0;
  std::vector<std::uint64_t> shard_events;
  std::uint64_t windows = 0;
  std::uint64_t msgs = 0;
  std::size_t queue_depth = 0;
  std::size_t live_procs = 0;
  std::size_t pooled_stacks = 0;

  std::string digest() const {
    std::string text;
    for (std::size_t i = 0; i < site_jobs.size(); ++i) {
      text += "site" + std::to_string(i) + " jobs=" +
              std::to_string(site_jobs[i]) +
              " crashes=" + std::to_string(site_crashes[i]) + "\n";
    }
    text += "remote_jobs=" + std::to_string(remote_jobs) +
            " collisions=" + std::to_string(collisions) +
            " deferrals=" + std::to_string(deferrals) + "\n";
    return digest_hex(text);
  }
};

// Reply rendezvous of the cross-shard submit RPC (as in exp/scenarios.cpp).
struct SubmitRpc {
  explicit SubmitRpc(sim::Kernel& client_kernel) : reply(client_kernel) {}
  sim::Event reply;
  Status result = Status::unavailable("rpc dropped");
};

grid::Placement derive_world_placement(const exp::ShardedSubmitConfig& c) {
  grid::PlacementSpec spec;
  spec.shards = c.sharded.shards;
  spec.site_weights.assign(c.sites, std::size_t(c.submitters_per_site) +
                                        std::size_t(c.remote_per_site));
  spec.cross_site_latencies = {c.rpc_latency, c.rpc_latency};
  spec.fallback_lookahead = c.sharded.lookahead;
  return grid::derive_placement(spec);
}

sim::ShardedKernelOptions with_lookahead(sim::ShardedKernelOptions options,
                                         const grid::Placement& placement) {
  options.lookahead = placement.lookahead;
  return options;
}

struct World {
  using Outputs = SubmitOutputs;

  explicit World(const exp::ShardedSubmitConfig& c)
      : config(c),
        placement(derive_world_placement(c)),
        sk(c.seed, with_lookahead(c.sharded, placement)) {
    grid::SubmitterConfig sc = config.submitter;
    sc.discipline = kDiscipline;
    local_stats.resize(config.sites * std::size_t(config.submitters_per_site));
    remote_stats.resize(config.sites * std::size_t(config.remote_per_site));
    for (std::size_t site = 0; site < config.sites; ++site) {
      const std::size_t shard = placement.site_shard(site);
      schedds.push_back(std::make_unique<grid::Schedd>(
          sk.shard(shard), grid::site_schedd_config(config.schedd, site)));
      grid::Schedd& schedd = *schedds.back();
      for (int j = 0; j < config.submitters_per_site; ++j) {
        const std::size_t idx =
            site * std::size_t(config.submitters_per_site) + std::size_t(j);
        spawn_with_stream(shard,
                          "site" + std::to_string(site) + ".submitter" +
                              std::to_string(j),
                          grid::make_submitter(schedd, sc, &local_stats[idx]));
      }
    }
    for (std::size_t site = 0; site < config.sites; ++site) {
      const std::size_t shard = placement.site_shard(site);
      for (int j = 0; j < config.remote_per_site; ++j) {
        const std::size_t idx =
            site * std::size_t(config.remote_per_site) + std::size_t(j);
        spawn_with_stream(
            shard,
            "site" + std::to_string(site) + ".remote" + std::to_string(j),
            remote_submitter(site, sc, &remote_stats[idx]));
      }
    }
  }

  ~World() { sk.shutdown(); }

  void run_until(TimePoint t) { sk.run_until(t); }

  std::vector<const sim::Kernel*> kernels() const {
    std::vector<const sim::Kernel*> out;
    for (std::size_t i = 0; i < sk.shard_count(); ++i) {
      out.push_back(&sk.shard(i));
    }
    return out;
  }

  Outputs finish();

  void spawn_with_stream(std::size_t shard, std::string name,
                         sim::ProcessBody body) {
    Rng stream = sk.shard(0).rng().stream(name);
    sk.spawn(shard, std::move(name),
             [stream, body = std::move(body)](sim::Context& ctx) {
               ctx.rng() = stream;
               body(ctx);
             });
  }

  sim::ProcessBody remote_submitter(std::size_t src_site,
                                    const grid::SubmitterConfig& sc,
                                    grid::SubmitterStats* stats) {
    const std::size_t dst_site = (src_site + 1) % config.sites;
    const std::size_t src_shard = placement.site_shard(src_site);
    const std::size_t dst_shard = placement.site_shard(dst_site);
    grid::Schedd* dst = schedds[dst_site].get();
    sim::ShardedKernel* k = &sk;
    const Duration latency = config.rpc_latency;
    return [k, sc, stats, dst, src_site, dst_site, src_shard, dst_shard,
            latency](sim::Context& ctx) {
      core::SimClock clock(ctx);
      Rng rng = ctx.rng();
      const grid::DisciplineTraits& traits =
          grid::resolve_discipline(sc.discipline);
      const core::TryOptions options =
          traits.try_options(sc.try_budget, sc.backoff);
      const core::Discipline discipline{traits.name, options, nullptr};
      sim::Kernel& home = k->shard(src_shard);
      const std::string rpc_name = "rpc:site" + std::to_string(src_site) +
                                   "->" + std::to_string(dst_site);
      while (true) {
        ctx.sleep(sc.startup);
        Status s = core::run_with_discipline(
            clock, rng, discipline,
            [&](TimePoint) {
              auto state = std::make_shared<SubmitRpc>(home);
              k->post(src_shard, grid::site_mailbox_id(src_site), dst_shard,
                      latency, rpc_name,
                      [k, state, dst, dst_site, dst_shard, src_shard,
                       latency](sim::Context& rctx) {
                        Status result = dst->submit(rctx);
                        k->post(dst_shard, grid::site_mailbox_id(dst_site),
                                src_shard, latency, "rpc-reply",
                                [state, result](sim::Context&) {
                                  state->result = result;
                                  state->reply.set();
                                });
                      });
              ctx.wait(state->reply);
              return state->result;
            },
            &stats->discipline);
        if (s.ok()) {
          ++stats->jobs_succeeded;
        } else {
          ++stats->tries_failed;
        }
      }
    };
  }

  const exp::ShardedSubmitConfig config;
  const grid::Placement placement;
  sim::ShardedKernel sk;
  std::vector<std::unique_ptr<grid::Schedd>> schedds;
  std::vector<grid::SubmitterStats> local_stats;
  std::vector<grid::SubmitterStats> remote_stats;
};

SubmitOutputs World::finish() {
  SubmitOutputs out;
  for (const auto& schedd : schedds) {
    out.site_jobs.push_back(schedd->jobs_submitted());
    out.site_crashes.push_back(schedd->crashes());
  }
  auto add = [&out](const grid::SubmitterStats& s) {
    out.attempts += s.discipline.try_metrics.attempts;
    out.deferrals += s.discipline.deferrals;
    out.collisions += s.discipline.collisions;
    out.successes += s.jobs_succeeded;
  };
  for (const auto& s : local_stats) add(s);
  for (const auto& s : remote_stats) {
    add(s);
    out.remote_jobs += s.jobs_succeeded;
  }
  out.events = sk.events_processed();
  out.windows = sk.windows_run();
  out.msgs = sk.messages_delivered();
  for (std::size_t i = 0; i < sk.shard_count(); ++i) {
    const sim::Kernel& k = sk.shard(i);
    out.shard_events.push_back(k.events_processed());
    out.queue_depth += k.queue_depth();
    out.live_procs += k.live_process_count();
    out.pooled_stacks += k.pooled_stack_count();
  }
  sk.shutdown();
  return out;
}

std::function<std::unique_ptr<World>()> builder(
    const exp::ShardedSubmitConfig& config) {
  return [config] { return std::make_unique<World>(config); };
}

}  // namespace

Result run_sharded_submit(const Options& opts) {
  const exp::ShardedSubmitConfig config = make_config(opts.seed, 1);
  const auto build = builder(config);
  if (!opts.trace) return run_sim_untraced<World>(opts, build, kWindow);

  // Traced run: the alternating passes, then one pass on min(4, nproc)
  // threads for the speed-up and the thread-count check, then the library
  // runner for the world check.
  Result result;
  const std::size_t threads = configured_threads();
  result.info["speedup_threads"] = std::to_string(threads);
  result.info["shards"] = std::to_string(kShards);
  SpanRecorder spans;
  const TracedPasses<World> traced =
      run_sim_traced<World>(build, kWindow, opts.seconds / 2, spans, result);
  const auto parallel = run_sim_pass<World>(
      builder(make_config(opts.seed, threads)), kWindow, nullptr);
  result.digests.push_back(parallel.outputs.digest());
  result.attempted = result.digests.size();
  const SubmitOutputs& o = traced.last.outputs;
  if (parallel.outputs.site_jobs != o.site_jobs) {
    result.errors.push_back("per-site jobs differ between threads=1 and "
                            "threads=" + std::to_string(threads));
  }
  const exp::ShardedSubmitResult library =
      exp::run_sharded_submit(config, kDiscipline, kWindow);
  std::vector<std::int64_t> library_jobs;
  for (const auto& site : library.by_site) {
    library_jobs.push_back(site.jobs_submitted);
  }
  if (library_jobs != o.site_jobs) {
    result.errors.push_back(
        "per-site jobs differ from exp::run_sharded_submit");
  }
  export_spans(spans, opts);

  const Percentile run_s = median(traced.traced_run_s);
  const Percentile plain_s = median(traced.plain_run_s);
  double max_events = 0, sum_events = 0;
  for (std::uint64_t e : o.shard_events) {
    max_events = std::max(max_events, double(e));
    sum_events += double(e);
  }
  put_layer(result, "sim.kernel.events", double(o.events));
  put_layer(result, "sim.kernel.events_per_s", double(o.events) / run_s.value,
            run_s.samples);
  put_layer(result, "sim.kernel.queue_depth", double(o.queue_depth));
  put_layer(result, "sim.kernel.live_procs", double(o.live_procs));
  put_layer(result, "sim.kernel.pooled_stacks", double(o.pooled_stacks));
  const Percentile live_min = median(traced.live_min_us);
  put_layer(result, "sim.kernel.live_min_us", live_min.value,
            live_min.samples);
  put_layer(result, "sim.shard.windows", double(o.windows));
  put_layer(result, "sim.shard.msgs", double(o.msgs));
  put_layer(result, "sim.shard.us_per_window",
            run_s.value * 1e6 / double(o.windows), run_s.samples);
  put_layer(result, "sim.shard.imbalance",
            max_events / (sum_events / double(o.shard_events.size())));
  put_layer(result, "sim.shard.speedup", plain_s.value / parallel.times.run_s,
            plain_s.samples);
  std::int64_t jobs = 0, crashes = 0;
  for (std::size_t i = 0; i < o.site_jobs.size(); ++i) {
    jobs += o.site_jobs[i];
    crashes += o.site_crashes[i];
  }
  put_layer(result, "grid.jobs", double(jobs));
  put_layer(result, "grid.crashes", double(crashes));
  put_layer(result, "core.attempts", double(o.attempts));
  put_layer(result, "core.deferrals", double(o.deferrals));
  put_layer(result, "core.collisions", double(o.collisions));
  put_layer(result, "core.useful_ratio",
            o.attempts ? double(o.successes) / double(o.attempts) : 0);
  const Percentile setup = median(traced.traced_setup_s);
  put_layer(result, "exp.setup_us_per_client",
            setup.value * 1e6 / double(kClients), setup.samples);
  put_layer(result, "bench.trace_overhead_pct",
            (run_s.value / plain_s.value - 1) * 100, run_s.samples);
  return result;
}

}  // namespace perfbench
