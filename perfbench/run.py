#!/usr/bin/env python3
"""Repository benchmark: builds perfbench, runs a workload, checks its outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                      # every workload, each in its own process
    python3 perfbench/run.py --record-reference 0-99   # refresh reference.json

Workloads: sharded-submit, kernel-churn, scripted-grid, ftsh-posix (see
README.md).  With --trace 0 the last line of stdout is one JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run instead.  Simulation outputs are checked against the digests in
reference.json; ftsh-posix checks every script's status, captured output and
timeout itself.  The full result, with the host and build manifest, is kept
in <build>/results/, and a traced run's spans in <build>/traces/ as
Chrome-trace JSON.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sharded-submit", "kernel-churn", "scripted-grid", "ftsh-posix"]
SIM_WORKLOADS = WORKLOADS[:3]
REFERENCE = os.path.join(HERE, "reference.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the ethergrid sources (src/) are not next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def git_describe():
    try:
        p = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, p.returncode))
    return json.loads(lines[-1])


def judge(raw, reference):
    """Counts failed attempts: simulation passes whose digest differs from the
    reference for this seed (or, for a seed without one, from the run's first
    pass), plus the attempts the workload itself found wrong."""
    failed = raw["failed"]
    notes = list(raw["errors"])
    digests = raw["digests"]
    if raw["workload"] in SIM_WORKLOADS:
        want = reference.get(raw["workload"], {}).get(str(raw["seed"]))
        if want is None:
            notes.append("no reference digest for seed %d: passes checked "
                         "against each other only" % raw["seed"])
            want = digests[0] if digests else None
        failed += sum(1 for d in digests if d != want)
    correct = failed == 0 and not raw["errors"] and raw["attempted"] > 0
    return correct, failed, notes


def manifest(raw):
    info = raw["info"]
    return {
        "nproc": os.cpu_count(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "sanitizer": info.get("sanitizer"),
        "backend": info.get("backend"),
        "queue": info.get("queue"),
        "switch": info.get("switch"),
        "git_describe": git_describe(),
    }


def print_report(raw, correct, failed, notes, names, host):
    print("== %s seed %d (%s run)" % (raw["workload"], raw["seed"],
                                      "traced" if raw["trace"] else "untraced"))
    print("manifest " + json.dumps(host, sort_keys=True))
    attempted = raw["attempted"]
    print("  %-32s %.6g   (%d of %d attempts)" %
          ("failed_frac", failed / attempted if attempted else 1.0, failed,
           attempted))
    for name in names:
        m = raw["metrics"][name]
        samples = " (n=%d)" % m["samples"] if m["samples"] else ""
        print("  %-32s %.6g %s%s" % (name, m["value"], m["unit"], samples))
    for key, value in sorted(raw["info"].items()):
        if key not in host:
            print("  info %s: %s" % (key, value))
    if raw["workload"] == "sharded-submit" and raw["trace"]:
        # Passes run every shard on one thread, so each window scans every
        # shard's queue in turn.
        m = {k: v["value"] for k, v in raw["metrics"].items()}
        windows = m["sim.shard.windows"]
        per_window = m["sim.shard.us_per_window"]
        scan = m["sim.kernel.live_min_us"] * int(raw["info"]["shards"])
        events = m["sim.kernel.events"] / windows
        print("  accounting: run_s = windows x us_per_window = %d x %.1f us"
              " = %.3f s. Per window, the live-min scans of the shards take"
              " %.1f us (%.0f%%); the other %.1f us run %.1f events and the"
              " window's flush and barrier (%.2f us per event; events_per_s"
              " over the whole run is %.0f)." %
              (windows, per_window, windows * per_window / 1e6, scan,
               100 * scan / per_window, per_window - scan, events,
               (per_window - scan) / events, m["sim.kernel.events_per_s"]))
    print("  correct: %s" % ("yes" if correct else "NO"))
    for note in notes:
        print("  note: " + note)


def run_one(binary, workload, seed, seconds, trace, spec):
    raw = run_binary(binary, workload, seed, seconds, trace)
    correct, failed, notes = judge(raw, load_reference())
    host = manifest(raw)
    key = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[key]]
    missing = [n for n in names if n not in raw["metrics"]]
    if missing:
        fail("%s did not report %s" % (workload, ", ".join(missing)))
    print_report(raw, correct, failed, notes, names, host)
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" %
                           (workload, seed, trace)), "w") as f:
        json.dump({"manifest": host, "correct": correct, "failed": failed,
                   "notes": notes, "raw": raw}, f, indent=1, sort_keys=True)
    return {"correct": correct, "attempted": raw["attempted"], "failed": failed,
            "metrics": {n: {"value": raw["metrics"][n]["value"],
                            "unit": raw["metrics"][n]["unit"]} for n in names}}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_reference(binary, workloads, seeds):
    digests = {}
    for workload in workloads:
        for seed in seeds:
            raw = run_binary(binary, workload, seed, 0.001, 0)
            if len(set(raw["digests"])) != 1 or raw["errors"]:
                fail("%s seed %d is not deterministic" % (workload, seed))
            digests.setdefault(workload, {})[str(seed)] = raw["digests"][0]
            print("%s seed %d %s" % (workload, seed, raw["digests"][0]),
                  file=sys.stderr)
    reference = load_reference()
    for workload, table in digests.items():
        reference.setdefault(workload, {}).update(table)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--record-reference", metavar="SEEDS",
                        help="record reference digests for these seeds "
                             "(e.g. 0-99) from the current build, for "
                             "--workload or every simulation workload")
    args = parser.parse_args()
    binary = build()
    if args.record_reference:
        if args.workload == "ftsh-posix":
            fail("ftsh-posix checks its scripts itself; it has no digests")
        workloads = (SIM_WORKLOADS if args.workload == "all"
                     else [args.workload])
        record_reference(binary, workloads, parse_seeds(args.record_reference))
        return
    if args.workload != "all":
        result = run_one(binary, args.workload, args.seed, args.seconds,
                         args.trace, spec)
        print(json.dumps(result))
        return
    # Every workload in its own process; the last line sums them up.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, workload, args.seed, args.seconds,
                         args.trace, spec)
        print(json.dumps(result))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][workload + "." + name] = m
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
