#!/usr/bin/env python3
"""Runs the cyclestream benchmark.

    python3 benchmark/run.py --seed S [--workload W] [--seconds T]
                             [--trace 0|1] [--out results.json] [--smoke]

Configures and builds the benchmark package (benchmark/CMakeLists.txt) into
build-bench/ when needed, then runs each workload in its own process, so
peak_rss_bytes is per workload. Prints one "workload metric value unit" line
per measured value, then, as the last line, a JSON object with the keys
correct, attempted, failed and metrics. The metrics are the end-to-end
metrics of BENCHMARK.json with --trace 0 and its per-layer metrics with
--trace 1; a traced run also writes a Chrome trace per workload to
build-bench/traces/. Exits nonzero when a check against a reference fails,
a metric is missing, or the build or a run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A first run builds and then runs: together within 900 s.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 700


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to benchmark/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "cyclebench",
                  "-j", "4"])
    deadline = time.time() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout's last line is the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.time()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "cyclebench")


def run_workload(binary, workload, seed, seconds, trace_path):
    """Runs one workload; returns (result dict, metric lines) or fails."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if trace_path:
        cmd += ["--trace", trace_path]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload}: exited {done.returncode} without a result")
    metric_lines = [l.split(" ", 1)[1] for l in lines if l.startswith("metric ")]
    if done.returncode != 0 or not result["correct"]:
        print(f"run.py: {workload}: {result['failed']} of "
              f"{result['attempted']} checks failed (exit "
              f"{done.returncode})", file=sys.stderr)
    return result, metric_lines


def main():
    # A SIGTERM unwinds like an error, so subprocess.run kills and reaps the
    # build or workload process it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every measured value here")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 of its length")
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-bench"))
    args = parser.parse_args()
    seconds = args.seconds / 20 if args.smoke else args.seconds
    selected = [args.workload] if args.workload else workloads
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    binary = build(os.path.abspath(args.build_dir))
    trace_dir = os.path.join(os.path.abspath(args.build_dir), "traces")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)

    started = time.time()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    record = {"seed": args.seed, "seconds": seconds, "trace": args.trace,
              "started_unix": started, "workloads": {}}
    for workload in selected:
        trace_path = (os.path.join(trace_dir, f"{workload}-seed{args.seed}.json")
                      if args.trace else None)
        result, lines = run_workload(binary, workload, args.seed, seconds,
                                     trace_path)
        for line in lines:
            print(line)
        missing = [m for m in wanted if m not in result["metrics"]
                   or result["metrics"][m]["value"] is None]
        if missing:
            fail(f"{workload}: no value for {', '.join(missing)}")
        record["workloads"][workload] = result
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(selected) == 1 else workload + "/"
        for m in wanted:
            summary["metrics"][prefix + m] = result["metrics"][m]

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
