// perfbench: runs one workload of the repository benchmark and prints its
// result as one JSON line.  run.py builds this binary, checks the outputs
// against reference digests and prints the metrics; see README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sharded-submit|kernel-churn|scripted-grid|ftsh-posix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

// Settings that silently change the program being measured.
const char* const kRefusedEnv[] = {
    "ETHERGRID_SIM_BACKEND", "ETHERGRID_SIM_QUEUE", "ETHERGRID_SIM_SWITCH",
    "ETHERGRID_SIM_STACK_KB"};

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

bool optimised() {
#if defined(__OPTIMIZE__)
  return std::strcmp(sanitizer(), "none") == 0;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (key == "--trace") {
      opts.trace = std::string(value) == "1";
    } else if (key == "--trace-out") {
      opts.trace_out = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options take one value each");
  if (opts.seconds <= 0) return usage("--seconds must be positive");

  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to measure: %s is set and changes "
                   "the program under test\n",
                   name);
      return 3;
    }
  }
  if (!optimised()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure: build type %s, sanitizer "
                 "%s is not an optimised build\n",
                 PERFBENCH_BUILD_TYPE, sanitizer());
    return 3;
  }

  Result result;
  if (opts.workload == "sharded-submit") {
    result = run_sharded_submit(opts);
  } else if (opts.workload == "kernel-churn") {
    result = run_kernel_churn(opts);
  } else if (opts.workload == "scripted-grid") {
    result = run_scripted_grid(opts);
  } else if (opts.workload == "ftsh-posix") {
    result = run_ftsh_posix(opts);
  } else {
    return usage(("unknown workload " + opts.workload).c_str());
  }

  if (opts.trace) {
    // Every per-layer metric, 0 where this workload leaves the layer idle.
    for (const auto& [name, unit] : layer_metric_units()) {
      result.metrics[name].unit = unit;
    }
  }
  ethergrid::sim::Kernel probe(1);
  result.info["build_type"] = PERFBENCH_BUILD_TYPE;
  result.info["sanitizer"] = sanitizer();
  result.info["compiler"] = __VERSION__;
  result.info["backend"] = ethergrid::sim::backend_name(probe.backend());
  result.info["queue"] = ethergrid::sim::queue_impl_name(probe.queue_impl());
  result.info["switch"] = ethergrid::sim::switch_impl_name(probe.switch_impl());
  std::printf("%s\n", result_json(opts, result).c_str());
  return 0;
}
