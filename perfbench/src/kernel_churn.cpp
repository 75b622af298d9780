// Workload kernel-churn: one sim::Kernel carrying the fig4 disk buffer past
// saturation (Fixed and Ethernet producers side by side) and, beside it,
// the fig6/7 reader farm with its black-hole server.  C++ clients only, no
// observers.
//
// Chosen because the kernel's dispatch, context switch and timer wheel do
// most of the work here, so a kernel hot-path change shows end to end.  It
// drives the kernel differently from sharded-submit: same-instant Event
// wakes (buffer and channel hand-offs) and wait_for timeouts that leave
// stale queue entries behind (readers' probe and data deadlines), instead
// of long sleeps.
#include <memory>
#include <string>
#include <vector>

#include "exp/scenarios.hpp"
#include "grid/clients.hpp"
#include "sim_workload.hpp"

namespace perfbench {

using namespace ethergrid;

namespace {

// Several independent buffer and farm instances share the one kernel, so a
// pass is long enough to time (each instance is a paper-sized world).
constexpr int kBuffers = 8;
constexpr int kFarms = 4;
constexpr int kProducersPerDiscipline = 25;  // 50 > fig4's ~35 saturation
constexpr int kReadersPerDiscipline = 6;
const char* const kProducerDisciplines[] = {"fixed", "ethernet"};
const char* const kReaderDisciplines[] = {"aloha", "ethernet"};
const Duration kWindow = sec(1200);

struct ChurnOutputs {
  std::int64_t files_consumed = 0;
  std::int64_t bytes_consumed = 0;
  std::int64_t files_completed = 0;
  std::int64_t producer_tries_failed = 0;
  std::int64_t transfers = 0;
  std::int64_t reader_collisions = 0;
  std::int64_t reader_deferrals = 0;
  std::int64_t attempts = 0;
  std::int64_t deferrals = 0;
  std::int64_t collisions = 0;
  std::uint64_t events = 0;
  std::size_t queue_depth = 0;
  std::size_t live_procs = 0;
  std::size_t pooled_stacks = 0;

  std::string digest() const {
    return digest_hex(
        "files_consumed=" + std::to_string(files_consumed) +
        " bytes_consumed=" + std::to_string(bytes_consumed) +
        " files_completed=" + std::to_string(files_completed) +
        " producer_tries_failed=" + std::to_string(producer_tries_failed) +
        " collisions=" + std::to_string(collisions) +
        " deferrals=" + std::to_string(deferrals) +
        " transfers=" + std::to_string(transfers) +
        " reader_collisions=" + std::to_string(reader_collisions) +
        " reader_deferrals=" + std::to_string(reader_deferrals) + "\n");
  }
};

struct World {
  using Outputs = ChurnOutputs;

  explicit World(std::uint64_t seed) : kernel(seed) {
    for (int b = 0; b < kBuffers; ++b) {
      buffers.push_back(std::make_unique<grid::FsBuffer>(
          kernel, exp::BufferScenarioConfig{}.buffer_bytes));
      channels.push_back(
          std::make_unique<grid::IoChannel>(kernel, grid::IoChannelConfig{}));
      grid::FsBuffer& buffer = *buffers.back();
      grid::IoChannel& channel = *channels.back();
      consumer_stats.push_back(std::make_unique<grid::ConsumerStats>());
      const std::string stem = "buffer" + std::to_string(b);
      kernel.spawn(stem + ".consumer",
                   grid::make_consumer(buffer, channel, grid::ConsumerConfig{},
                                       consumer_stats.back().get()));
      for (const char* discipline : kProducerDisciplines) {
        for (int i = 0; i < kProducersPerDiscipline; ++i) {
          grid::ProducerConfig pc;
          pc.discipline = discipline;
          pc.name_prefix = stem + "." + discipline + std::to_string(i);
          producer_stats.push_back(std::make_unique<grid::ProducerStats>());
          kernel.spawn(pc.name_prefix,
                       grid::make_producer(buffer, channel, pc,
                                           producer_stats.back().get()));
        }
      }
    }
    for (int f = 0; f < kFarms; ++f) {
      farms.push_back(std::make_unique<grid::ServerFarm>(
          kernel, exp::ReaderScenarioConfig::paper_farm()));
      for (const char* discipline : kReaderDisciplines) {
        for (int i = 0; i < kReadersPerDiscipline; ++i) {
          grid::ReaderConfig rc;
          rc.discipline = discipline;
          reader_stats.push_back(std::make_unique<grid::ReaderStats>());
          kernel.spawn("farm" + std::to_string(f) + ".reader." + discipline +
                           std::to_string(i),
                       grid::make_reader(*farms.back(), rc,
                                         reader_stats.back().get()));
        }
      }
    }
  }

  ~World() { kernel.shutdown(); }

  void run_until(TimePoint t) { kernel.run_until(t); }

  std::vector<const sim::Kernel*> kernels() const { return {&kernel}; }

  Outputs finish() {
    Outputs out;
    for (const auto& s : consumer_stats) {
      out.files_consumed += s->files_consumed;
      out.bytes_consumed += s->bytes_consumed;
    }
    for (const auto& s : producer_stats) {
      out.files_completed += s->files_completed;
      out.producer_tries_failed += s->tries_failed;
      out.attempts += s->discipline.try_metrics.attempts;
      out.deferrals += s->discipline.deferrals;
      out.collisions += s->discipline.collisions;
    }
    for (const auto& s : reader_stats) {
      out.transfers += s->transfers;
      out.reader_collisions += s->collisions;
      out.reader_deferrals += s->deferrals;
    }
    out.events = kernel.events_processed();
    out.queue_depth = kernel.queue_depth();
    out.live_procs = kernel.live_process_count();
    out.pooled_stacks = kernel.pooled_stack_count();
    kernel.shutdown();
    return out;
  }

  sim::Kernel kernel;
  std::vector<std::unique_ptr<grid::FsBuffer>> buffers;
  std::vector<std::unique_ptr<grid::IoChannel>> channels;
  std::vector<std::unique_ptr<grid::ServerFarm>> farms;
  std::vector<std::unique_ptr<grid::ConsumerStats>> consumer_stats;
  std::vector<std::unique_ptr<grid::ProducerStats>> producer_stats;
  std::vector<std::unique_ptr<grid::ReaderStats>> reader_stats;
};

}  // namespace

Result run_kernel_churn(const Options& opts) {
  const std::uint64_t seed = opts.seed;
  const std::function<std::unique_ptr<World>()> build = [seed] {
    return std::make_unique<World>(seed);
  };
  if (!opts.trace) return run_sim_untraced<World>(opts, build, kWindow);

  Result result;
  SpanRecorder spans;
  const TracedPasses<World> traced =
      run_sim_traced<World>(build, kWindow, opts.seconds, spans, result);
  result.attempted = result.digests.size();
  export_spans(spans, opts);

  const ChurnOutputs& o = traced.last.outputs;
  const Percentile run_s = median(traced.traced_run_s);
  const Percentile plain_s = median(traced.plain_run_s);
  const Percentile live_min = median(traced.live_min_us);
  put_layer(result, "sim.kernel.events", double(o.events));
  put_layer(result, "sim.kernel.events_per_s", double(o.events) / run_s.value,
            run_s.samples);
  put_layer(result, "sim.kernel.queue_depth", double(o.queue_depth));
  put_layer(result, "sim.kernel.live_procs", double(o.live_procs));
  put_layer(result, "sim.kernel.pooled_stacks", double(o.pooled_stacks));
  put_layer(result, "sim.kernel.live_min_us", live_min.value,
            live_min.samples);
  put_layer(result, "grid.files", double(o.files_consumed));
  put_layer(result, "core.attempts", double(o.attempts));
  put_layer(result, "core.deferrals", double(o.deferrals));
  put_layer(result, "core.collisions", double(o.collisions));
  put_layer(result, "core.useful_ratio",
            o.attempts ? double(o.files_completed) / double(o.attempts) : 0);
  put_layer(result, "bench.trace_overhead_pct",
            (run_s.value / plain_s.value - 1) * 100, run_s.samples);
  return result;
}

}  // namespace perfbench
