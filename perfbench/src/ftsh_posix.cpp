// Workload ftsh-posix: shell::Session over posix::PosixExecutor running a
// fixed mix of scripts over real processes, as a closed loop with one
// client (the next script starts when the previous one returns).
//
// The mix, per pass, in an order drawn from the seed:
//   6 x sequential commands      true; true; echo <word>
//   3 x captured output          echo <word> -> out
//   2 x forall over 4 branches   forall i in 1 2 3 4 / true / end
//   2 x timeout                  try for 0.05 seconds / sleep 10 / end
// The session records a trace, exported at the end of every pass.  Each
// script's status, captured output and timeout are checked.  The
// counts put the median script inside the sequential group and the p90
// inside the timeout group: a p90 at the tail of the forall group swung
// 5-16 ms between runs with the host's thread wake-up latency.
//
// Chosen because it exercises posix and shell with no simulator at all:
// any sim change must leave this workload unchanged.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "posix/posix_executor.hpp"
#include "shell/parser.hpp"
#include "shell/session.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ethergrid;

namespace {

constexpr double kTimeoutS = 0.05;
// The timeout script's command (sleep 10) dies on SIGTERM at once; a try
// returning later than this past its deadline counts as a failed script.
constexpr double kOvershootLimitS = 1.0;

enum class Kind { kSequential, kCapture, kForall, kTimeout };

struct Job {
  Kind kind;
  std::string word;  // expected output / captured value
  std::string source;
  std::shared_ptr<shell::Script> script;
};

std::vector<Job> make_mix(Rng& rng) {
  std::vector<Job> jobs;
  auto word = [&rng] {
    std::string w;
    for (int i = 0; i < 8; ++i) w += char('a' + rng.uniform_int(0, 25));
    return w;
  };
  for (int i = 0; i < 6; ++i) {
    const std::string w = word();
    jobs.push_back({Kind::kSequential, w, "true\ntrue\necho " + w + "\n", {}});
  }
  for (int i = 0; i < 3; ++i) {
    const std::string w = word();
    jobs.push_back({Kind::kCapture, w, "echo " + w + " -> out\n", {}});
  }
  for (int i = 0; i < 2; ++i) {
    jobs.push_back(
        {Kind::kForall, "", "forall i in 1 2 3 4\n  true\nend\n", {}});
  }
  for (int i = 0; i < 2; ++i) {
    jobs.push_back({Kind::kTimeout, "",
                    "try for 0.05 seconds\n  sleep 10\nend\n", {}});
  }
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[std::size_t(rng.uniform_int(0, int(i) - 1))]);
  }
  return jobs;
}

// Executor decorator timing every call the interpreter makes into the
// POSIX layer.  Commands of forall branches run on branch threads; time
// inside the executor is summed for the script's own thread only, where
// the calls are sequential.
class TimedExecutor final : public shell::Executor {
 public:
  TimedExecutor(posix::PosixExecutor& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans), script_thread_(std::this_thread::get_id()) {}

  shell::CommandResult run(const shell::CommandInvocation& inv) override {
    SpanRecorder::Scope span(spans_, "posix.cmd");
    const auto t0 = SteadyClock::now();
    shell::CommandResult r = inner_.run(inv);
    const auto t1 = SteadyClock::now();
    ++commands_;
    if (!spans_) return r;
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    std::lock_guard<std::mutex> lock(mu_);
    cmd_us.push_back(us);
    if (std::this_thread::get_id() == script_thread_) inside_s += us / 1e6;
    if (inv.deadline != TimePoint::max() &&
        r.status.code() == StatusCode::kTimeout) {
      kill_ms.push_back(
          (to_seconds(inner_.now()) - to_seconds(inv.deadline)) * 1e3);
    }
    return r;
  }

  std::vector<Status> run_parallel(
      std::vector<std::function<Status()>> branches) override {
    SpanRecorder::Scope span(spans_, "posix.forall");
    if (spans_) spans_->set_fallback_parent(span.id());
    const auto t0 = SteadyClock::now();
    std::vector<Status> r = inner_.run_parallel(std::move(branches));
    const double s = seconds_since(t0);
    if (!spans_) return r;
    spans_->set_fallback_parent(-1);
    std::lock_guard<std::mutex> lock(mu_);
    forall_ms.push_back(s * 1e3);
    inside_s += s;
    return r;
  }

  bool file_exists(const std::string& path) override {
    return inner_.file_exists(path);
  }
  TimePoint now() override { return inner_.now(); }
  void sleep(Duration d) override {
    SpanRecorder::Scope span(spans_, "posix.sleep");
    const auto t0 = SteadyClock::now();
    inner_.sleep(d);
    if (!spans_) return;
    std::lock_guard<std::mutex> lock(mu_);
    inside_s += seconds_since(t0);
  }
  Status with_deadline(TimePoint deadline,
                       const std::function<Status()>& fn) override {
    return inner_.with_deadline(deadline, fn);
  }
  bool abort_requested() override { return inner_.abort_requested(); }

  std::size_t commands() const { return commands_; }

  // Traced passes only.
  std::vector<double> cmd_us;
  std::vector<double> forall_ms;
  std::vector<double> kill_ms;
  double inside_s = 0;

 private:
  posix::PosixExecutor& inner_;
  SpanRecorder* spans_;
  const std::thread::id script_thread_;
  std::atomic<std::size_t> commands_{0};
  std::mutex mu_;
};

struct PassResult {
  PassTimes times;
  std::vector<double> script_ms;
  std::vector<double> overshoot_ms;
  std::size_t scripts = 0;
  std::size_t failed = 0;
  std::size_t commands = 0;
  std::vector<double> cmd_us, forall_ms, kill_ms;
  double inside_s = 0;
  std::vector<std::string> errors;
};

bool check(const Job& job, const Status& status, shell::Session& session,
           double elapsed_s, std::string* why) {
  switch (job.kind) {
    case Kind::kSequential:
      if (!status.ok()) *why = "sequential script failed: " + status.message();
      else if (session.output().find(job.word + "\n") == std::string::npos)
        *why = "echo output missing " + job.word;
      break;
    case Kind::kCapture: {
      const auto out = session.environment().get("out");
      if (!status.ok()) *why = "capture script failed: " + status.message();
      else if (!out || *out != job.word)
        *why = "captured '" + out.value_or("") + "', want '" + job.word + "'";
      break;
    }
    case Kind::kForall:
      if (!status.ok()) *why = "forall failed: " + status.message();
      break;
    case Kind::kTimeout:
      if (status.ok()) *why = "try around sleep 10 succeeded";
      else if (elapsed_s < kTimeoutS || elapsed_s > kTimeoutS + kOvershootLimitS)
        *why = "try returned after " + std::to_string(elapsed_s) + " s";
      break;
  }
  return why->empty();
}

PassResult run_pass(Rng& rng, SpanRecorder* spans) {
  PassResult pass;
  SpanRecorder::Scope pass_span(spans, "pass");
  auto t0 = SteadyClock::now();
  std::unique_ptr<posix::PosixExecutor> posix_executor;
  std::unique_ptr<TimedExecutor> executor;
  std::unique_ptr<shell::Session> session;
  std::vector<Job> jobs;
  {
    SpanRecorder::Scope s(spans, "setup");
    posix_executor = std::make_unique<posix::PosixExecutor>();
    executor = std::make_unique<TimedExecutor>(*posix_executor, spans);
    // Trace collection on, exported at teardown as `ftsh --trace-out` does.
    shell::SessionOptions options;
    options.collect_trace = true;
    session = std::make_unique<shell::Session>(*executor, options);
    jobs = make_mix(rng);
    for (Job& job : jobs) {
      SpanRecorder::Scope p(spans, "shell.parse_script");
      shell::ParseResult parsed = shell::parse_script(job.source);
      if (!parsed.status.ok()) {
        pass.errors.push_back("parse: " + parsed.status.message());
      }
      job.script = parsed.script;
    }
  }
  pass.times.setup_s = seconds_since(t0);
  t0 = SteadyClock::now();
  {
    SpanRecorder::Scope run_span(spans, "run");
    for (const Job& job : jobs) {
      if (!job.script) continue;
      const auto s0 = SteadyClock::now();
      Status status;
      {
        SpanRecorder::Scope s(spans, "shell.script");
        status = session->run(*job.script);
      }
      const double elapsed = seconds_since(s0);
      pass.script_ms.push_back(elapsed * 1e3);
      if (job.kind == Kind::kTimeout) {
        pass.overshoot_ms.push_back((elapsed - kTimeoutS) * 1e3);
      }
      ++pass.scripts;
      std::string why;
      if (!check(job, status, *session, elapsed, &why)) {
        ++pass.failed;
        pass.errors.push_back(why);
      }
    }
  }
  pass.times.run_s = seconds_since(t0);
  t0 = SteadyClock::now();
  {
    SpanRecorder::Scope s(spans, "teardown");
    pass.commands = executor->commands();
    pass.cmd_us = std::move(executor->cmd_us);
    pass.forall_ms = std::move(executor->forall_ms);
    pass.kill_ms = std::move(executor->kill_ms);
    pass.inside_s = executor->inside_s;
    if (session->trace()->to_json().empty()) {
      pass.errors.push_back("empty trace export");
    }
    session.reset();
    executor.reset();
    posix_executor.reset();
  }
  pass.times.teardown_s = seconds_since(t0);
  return pass;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

Result run_ftsh_posix(const Options& opts) {
  Result result;
  Rng rng(opts.seed);
  std::vector<PassTimes> times;
  std::vector<double> script_ms, overshoot_ms, scripts_per_s;
  auto account = [&](const PassResult& pass) {
    result.attempted += pass.scripts;
    result.failed += pass.failed;
    for (const std::string& e : pass.errors) {
      if (result.errors.size() < 20) result.errors.push_back(e);
    }
  };
  const auto start = SteadyClock::now();

  if (!opts.trace) {
    while (keep_going(times.size(), 3, start, opts.seconds)) {
      const PassResult pass = run_pass(rng, nullptr);
      account(pass);
      times.push_back(pass.times);
      append(script_ms, pass.script_ms);
      append(overshoot_ms, pass.overshoot_ms);
      scripts_per_s.push_back(double(pass.scripts) / pass.times.run_s);
    }
    fill_end_to_end(result, times, {}, script_ms, scripts_per_s);
    const Percentile overshoot = median(overshoot_ms);
    result.info["timeout_overshoot_p50_ms"] =
        std::to_string(overshoot.value) + " (n=" +
        std::to_string(overshoot.samples) + ")";
    return result;
  }

  // Traced run: alternate untraced and traced passes.
  SpanRecorder spans;
  std::vector<double> plain_run_s, traced_run_s, cmd_us, forall_ms, kill_ms;
  std::size_t commands = 0;
  double script_s = 0, inside_s = 0;
  while (keep_going(traced_run_s.size(), 3, start, opts.seconds)) {
    const PassResult plain = run_pass(rng, nullptr);
    account(plain);
    plain_run_s.push_back(plain.times.run_s);
    const PassResult traced = run_pass(rng, &spans);
    account(traced);
    traced_run_s.push_back(traced.times.run_s);
    append(cmd_us, traced.cmd_us);
    append(forall_ms, traced.forall_ms);
    append(kill_ms, traced.kill_ms);
    append(overshoot_ms, traced.overshoot_ms);
    commands += traced.commands;
    inside_s += traced.inside_s;
    for (double ms : traced.script_ms) script_s += ms / 1e3;
  }
  const auto totals = export_spans(spans, opts);
  const Percentile run_s = median(traced_run_s);
  const Percentile plain_s = median(plain_run_s);
  const Percentile cmd50 = percentile(cmd_us, 0.5);
  const Percentile cmd90 = percentile(cmd_us, 0.9);
  const Percentile forall = median(forall_ms);
  const Percentile kill = median(kill_ms);
  const Percentile overshoot = median(overshoot_ms);
  put_layer(result, "shell.scripts", double(totals.at("shell.script").count));
  put_layer(result, "shell.commands", double(commands));
  const auto parse = totals.find("shell.parse_script");
  if (parse != totals.end()) {
    put_layer(result, "shell.parse_us",
              parse->second.total_us / double(parse->second.count),
              parse->second.count);
  }
  // The script's wall time minus the time inside the executor, per command.
  put_layer(result, "shell.self_us_per_cmd",
            (script_s - inside_s) * 1e6 / double(commands), commands);
  put_layer(result, "posix.cmd_p50_us", cmd50.value, cmd50.samples);
  put_layer(result, "posix.cmd_p90_us", cmd90.value, cmd90.samples);
  put_layer(result, "posix.forall_p50_ms", forall.value, forall.samples);
  put_layer(result, "posix.kill_p50_ms", kill.value, kill.samples);
  put_layer(result, "posix.timeout_overshoot_p50_ms", overshoot.value,
            overshoot.samples);
  put_layer(result, "bench.trace_overhead_pct",
            (run_s.value / plain_s.value - 1) * 100, run_s.samples);
  return result;
}

}  // namespace perfbench
