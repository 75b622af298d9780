// Workload scripted-grid: ftsh-scripted submitters, a fluid bulk lane with
// reservations, injected faults and full observability on one kernel.
//
//   * 40 schedds x 50 clients (below collapse at every site); each client
//     runs the paper's Ethernet script through Interpreter::run_source in a
//     loop, reparsing it every time, as bench/fidelity_script_vs_api does;
//   * 64 bulk senders share one 10 MiB/s fluid link with a ReservationBook,
//     half on the "ethernet" discipline and half on "reservation";
//   * the fault plan schedd*.submit:fail@0.05 drives `try` retries;
//   * a MetricsRegistry and a TraceRecorder observe everything, and the
//     trace is exported at the end of every pass.
//
// Chosen because shell, obs and sim.fluid do most of the work here and
// sim.shard none.
#include <memory>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "grid/clients.hpp"
#include "grid/placement.hpp"
#include "grid/reservation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shell/interpreter.hpp"
#include "shell/parser.hpp"
#include "shell/sim_executor.hpp"
#include "sim/fault_plan.hpp"
#include "sim_workload.hpp"

namespace perfbench {

using namespace ethergrid;

namespace {

constexpr int kSites = 40;
constexpr int kClientsPerSite = 50;
constexpr int kBulkSenders = 64;
constexpr double kLinkBps = 10.0 * 1024 * 1024;
constexpr const char* kFaultPlan = "schedd*.submit:fail@0.05";
const Duration kWindow = sec(300);

// The paper's Ethernet submitter (read-file-nr stands in for cut/proc).
constexpr const char* kEthernetScript = R"(
try for 5 minutes
  read-file-nr -> n
  if ${n} .lt. 1000
    failure
  else
    condor_submit submit.job
  end
end
)";

struct GridOutputs {
  std::vector<std::int64_t> site_jobs;
  std::vector<int> site_crashes;
  std::int64_t submits = 0;        // condor_submit invocations
  std::int64_t submit_failures = 0;
  std::int64_t probes = 0;         // read-file-nr invocations
  std::int64_t deferrals = 0;      // probes that read below the threshold
  double submit_vwait_s = 0;       // virtual time inside condor_submit
  std::int64_t scripts = 0;        // run_source calls started
  std::int64_t bulk_files = 0;
  std::int64_t bulk_bytes = 0;
  std::int64_t bulk_attempts = 0;
  std::int64_t faults = 0;
  std::string audit_hash;
  std::string trace_hash;          // empty when observers were off
  double trace_mb = 0;
  double export_s = 0;
  std::size_t spans = 0;
  std::uint64_t reshares = 0;
  std::int64_t flows_completed = 0;
  std::int64_t flows_aborted = 0;
  std::uint64_t events = 0;
  std::size_t queue_depth = 0;
  std::size_t live_procs = 0;
  std::size_t pooled_stacks = 0;

  std::string model_text() const {
    std::string text;
    for (std::size_t i = 0; i < site_jobs.size(); ++i) {
      text += "site" + std::to_string(i) + " jobs=" +
              std::to_string(site_jobs[i]) +
              " crashes=" + std::to_string(site_crashes[i]) + "\n";
    }
    text += "bulk_files=" + std::to_string(bulk_files) +
            " bulk_bytes=" + std::to_string(bulk_bytes) +
            " collisions=" + std::to_string(submit_failures) +
            " deferrals=" + std::to_string(deferrals) +
            " audit=" + audit_hash + "\n";
    return text;
  }
  std::string digest() const {
    return digest_hex(model_text() + "trace=" + trace_hash + "\n");
  }
};

struct World {
  using Outputs = GridOutputs;

  World(std::uint64_t seed, bool observe)
      : kernel(seed),
        faults(parse_plan(), kernel.rng().stream("faults")),
        link(kernel, link_config()),
        book(book_config()),
        observers(observe ? &set : nullptr) {
    if (observe) {
      set.add(&metrics);
      set.add(&trace);
    }
    for (int site = 0; site < kSites; ++site) {
      schedds.push_back(std::make_unique<grid::Schedd>(
          kernel,
          grid::site_schedd_config(grid::ScheddConfig{}, std::size_t(site))));
      grid::Schedd& schedd = *schedds.back();
      schedd.set_fault_injector(&faults);
      schedd.set_observers(observers);
      executors.push_back(std::make_unique<shell::SimExecutor>(kernel));
      shell::SimExecutor& executor = *executors.back();
      executor.set_observers(observers);
      register_commands(executor, schedd);
      for (int j = 0; j < kClientsPerSite; ++j) {
        const std::uint64_t idx = std::uint64_t(site * kClientsPerSite + j);
        kernel.spawn("site" + std::to_string(site) + ".script" +
                         std::to_string(j),
                     [this, &executor, seed, idx](sim::Context& ctx) {
                       shell::SimExecutor::ContextBinding binding(executor,
                                                                  ctx);
                       shell::InterpreterOptions options;
                       options.seed = seed ^ (idx * 0x9e37u);
                       options.observers = observers;
                       shell::Interpreter interpreter(executor, options);
                       shell::Environment env;
                       while (true) {
                         ctx.sleep(msec(500));  // condor_submit startup
                         ++scripts;
                         (void)interpreter.run_source(kEthernetScript, env);
                       }
                     });
      }
    }
    link.set_fault_injector(&faults);
    link.set_observers(observers);
    book.set_observers(observers);
    bulk_stats.resize(kBulkSenders);
    for (int i = 0; i < kBulkSenders; ++i) {
      grid::BulkSenderConfig bc;
      bc.discipline = i % 2 ? "reservation" : "ethernet";
      kernel.spawn("bulk" + std::to_string(i),
                   grid::make_bulk_sender(link, &book, bc,
                                          &bulk_stats[std::size_t(i)]));
    }
  }

  ~World() { kernel.shutdown(); }

  static sim::FaultPlan parse_plan() {
    sim::FaultPlan plan;
    (void)sim::FaultPlan::parse(kFaultPlan, &plan);
    return plan;
  }
  static grid::SubstrateConfig link_config() {
    grid::SubstrateConfig c;
    c.site = "bulk";
    c.bytes_per_second = kLinkBps;
    c.model = grid::CapacityModel::kFluid;
    return c;
  }
  static grid::ReservationBookConfig book_config() {
    grid::ReservationBookConfig c;
    c.reservable_bps = kLinkBps;
    c.site = "bulk.book";
    return c;
  }

  // Command handlers block in virtual time, so they are counted (and their
  // virtual wait summed), never host-timed.
  void register_commands(shell::SimExecutor& executor, grid::Schedd& schedd) {
    executor.register_command(
        "condor_submit",
        [this, &schedd](sim::Context& ctx, const shell::CommandInvocation&)
            -> shell::CommandResult {
          const TimePoint t0 = ctx.now();
          ++submits;
          Status s = schedd.submit(ctx);
          if (!s.ok()) ++submit_failures;
          submit_vwait += ctx.now() - t0;
          return {std::move(s), "", ""};
        });
    executor.register_command(
        "read-file-nr",
        [this, &schedd](sim::Context& ctx, const shell::CommandInvocation&)
            -> shell::CommandResult {
          ctx.sleep(msec(10));
          ++probes;
          const std::int64_t available = schedd.fd_table().available();
          if (available < 1000) ++deferrals;
          return {Status::success(), std::to_string(available), ""};
        });
  }

  void run_until(TimePoint t) { kernel.run_until(t); }

  std::vector<const sim::Kernel*> kernels() const { return {&kernel}; }

  Outputs finish() {
    Outputs out;
    for (const auto& schedd : schedds) {
      out.site_jobs.push_back(schedd->jobs_submitted());
      out.site_crashes.push_back(schedd->crashes());
    }
    out.submits = submits;
    out.submit_failures = submit_failures;
    out.probes = probes;
    out.deferrals = deferrals;
    out.submit_vwait_s = to_seconds(submit_vwait);
    out.scripts = scripts;
    for (const auto& s : bulk_stats) {
      out.bulk_files += s.files_sent;
      out.bulk_bytes += s.bytes_sent;
      out.bulk_attempts += s.discipline.try_metrics.attempts;
    }
    out.faults = faults.fired_total();
    out.audit_hash = digest_hex(faults.audit_text());
    const sim::FluidResource* fluid = link.fluid();
    out.reshares = fluid->reshares();
    out.flows_completed = fluid->transfers_completed();
    out.flows_aborted = fluid->transfers_aborted();
    out.events = kernel.events_processed();
    out.queue_depth = kernel.queue_depth();
    out.live_procs = kernel.live_process_count();
    out.pooled_stacks = kernel.pooled_stack_count();
    kernel.shutdown();
    if (observers) {
      out.spans = trace.span_count();
      const auto t0 = SteadyClock::now();
      const std::string json = trace.to_json();
      out.export_s = seconds_since(t0);
      out.trace_hash = digest_hex(json);
      out.trace_mb = double(json.size()) / (1024.0 * 1024.0);
    }
    return out;
  }

  sim::Kernel kernel;
  core::FaultInjector faults;
  grid::Substrate link;
  grid::ReservationBook book;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace{"scripted-grid"};
  obs::ObserverSet set;
  obs::ObserverSet* observers;
  std::vector<std::unique_ptr<grid::Schedd>> schedds;
  std::vector<std::unique_ptr<shell::SimExecutor>> executors;
  std::vector<grid::BulkSenderStats> bulk_stats;
  std::int64_t submits = 0;
  std::int64_t submit_failures = 0;
  std::int64_t probes = 0;
  std::int64_t deferrals = 0;
  Duration submit_vwait{};
  std::int64_t scripts = 0;
};

// Host microseconds per shell::parse_script call of the client script,
// median over batches.  Parsing happens inside run_source on a fiber,
// where host time would include other fibers' work, so it is timed here
// on its own.
Percentile parse_us(SpanRecorder& spans) {
  constexpr int kBatches = 25;
  constexpr int kPerBatch = 200;
  std::vector<double> per_call;
  SpanRecorder::Scope all(&spans, "shell.parse_script");
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = SteadyClock::now();
    for (int i = 0; i < kPerBatch; ++i) {
      auto parsed = shell::parse_script(kEthernetScript);
      if (!parsed.status.ok()) return {};
    }
    per_call.push_back(seconds_since(t0) * 1e6 / kPerBatch);
  }
  return median(per_call);
}

}  // namespace

Result run_scripted_grid(const Options& opts) {
  const std::uint64_t seed = opts.seed;
  const std::function<std::unique_ptr<World>()> build = [seed] {
    return std::make_unique<World>(seed, true);
  };
  const std::function<std::unique_ptr<World>()> build_unobserved = [seed] {
    return std::make_unique<World>(seed, false);
  };
  if (!opts.trace) return run_sim_untraced<World>(opts, build, kWindow);

  // Traced run: the alternating passes, then observers-off passes for the
  // observers' overhead (they must leave the model outputs unchanged).
  Result result;
  SpanRecorder spans;
  const TracedPasses<World> traced =
      run_sim_traced<World>(build, kWindow, opts.seconds / 2, spans, result);
  const GridOutputs& o = traced.last.outputs;
  std::vector<double> unobserved_run_s;
  const auto start = SteadyClock::now();
  while (keep_going(unobserved_run_s.size(), 1, start, opts.seconds / 4)) {
    const auto pass = run_sim_pass<World>(build_unobserved, kWindow, nullptr);
    unobserved_run_s.push_back(pass.times.run_s);
    if (pass.outputs.model_text() != o.model_text()) {
      result.errors.push_back("model outputs differ with observers off");
    }
  }
  result.attempted = result.digests.size();
  const Percentile parse = parse_us(spans);
  export_spans(spans, opts);

  const Percentile run_s = median(traced.traced_run_s);
  const Percentile plain_s = median(traced.plain_run_s);
  const Percentile off_s = median(unobserved_run_s);
  const Percentile live_min = median(traced.live_min_us);
  std::int64_t jobs = 0, crashes = 0;
  for (std::size_t i = 0; i < o.site_jobs.size(); ++i) {
    jobs += o.site_jobs[i];
    crashes += o.site_crashes[i];
  }
  put_layer(result, "sim.kernel.events", double(o.events));
  put_layer(result, "sim.kernel.events_per_s", double(o.events) / run_s.value,
            run_s.samples);
  put_layer(result, "sim.kernel.queue_depth", double(o.queue_depth));
  put_layer(result, "sim.kernel.live_procs", double(o.live_procs));
  put_layer(result, "sim.kernel.pooled_stacks", double(o.pooled_stacks));
  put_layer(result, "sim.kernel.live_min_us", live_min.value,
            live_min.samples);
  put_layer(result, "sim.fluid.reshares", double(o.reshares));
  put_layer(result, "sim.fluid.transfers", double(o.flows_completed));
  put_layer(result, "sim.fluid.aborted", double(o.flows_aborted));
  const double flows = double(o.flows_completed + o.flows_aborted);
  put_layer(result, "sim.fluid.useful_ratio",
            flows > 0 ? double(o.flows_completed) / flows : 0);
  put_layer(result, "grid.jobs", double(jobs));
  put_layer(result, "grid.crashes", double(crashes));
  put_layer(result, "grid.files", double(o.bulk_files));
  put_layer(result, "grid.bulk_bytes", double(o.bulk_bytes));
  put_layer(result, "core.attempts", double(o.submits + o.bulk_attempts));
  put_layer(result, "core.deferrals", double(o.deferrals));
  put_layer(result, "core.collisions", double(o.submit_failures));
  put_layer(result, "core.faults", double(o.faults));
  put_layer(result, "core.useful_ratio",
            o.submits ? double(o.submits - o.submit_failures) /
                            double(o.submits)
                      : 0);
  put_layer(result, "shell.scripts", double(o.scripts));
  put_layer(result, "shell.commands", double(o.submits + o.probes));
  put_layer(result, "shell.parse_us", parse.value, parse.samples);
  put_layer(result, "obs.spans", double(o.spans));
  put_layer(result, "obs.overhead_pct", (plain_s.value / off_s.value - 1) * 100,
            off_s.samples);
  put_layer(result, "obs.export_s", o.export_s);
  put_layer(result, "obs.export_mb", o.trace_mb);
  put_layer(result, "bench.trace_overhead_pct",
            (run_s.value / plain_s.value - 1) * 100, run_s.samples);
  result.info["submit_vwait_s"] = std::to_string(o.submit_vwait_s);
  return result;
}

}  // namespace perfbench
