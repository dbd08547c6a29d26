#!/usr/bin/env python3
"""Builds and runs the engine benchmark from the root of a source checkout.

  python3 engine_bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark program is built from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build). With --trace 0 the last line of
stdout is the run's result JSON with the end-to-end metrics. With --trace 1
the workload runs twice from the same seed: untraced first, then traced
over the same ops, and the last line holds the per-layer metrics.
--workload all runs every workload in turn and prints their metrics.

Every run has a wall-clock cap; a run that exceeds it, fails a build, or
fails an oracle check exits non-zero and prints no result line.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["converge", "serve", "write_mix", "rebalance"]
BUILD_CAP_S = 850
RUN_CAP_S = 170


def log(msg):
    print(f"engine_bench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    deadline = time.monotonic() + BUILD_CAP_S
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
            log(f"build failed: {e}")
            sys.exit(1)
    return os.path.join(out, "engine_bench")


def run_binary(binary, args, workload, deadline):
    """Runs the program once; returns its stdout lines. Exits on failure."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"workload {workload} exceeded its {RUN_CAP_S} s wall-clock cap")
        sys.exit(1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"workload {workload} failed with exit code {proc.returncode}")
        sys.exit(1)
    return proc.stdout.splitlines()


def result_of(lines, workload):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"workload {workload} printed no result line")
        sys.exit(1)
    if result.get("correct") is not True:
        log(f"workload {workload} reported incorrect output")
        sys.exit(1)
    return result


def trace_baseline(lines):
    """The untraced run's first-round op count and store-A read seconds."""
    for line in lines:
        if line.startswith("trace_baseline "):
            fields = dict(f.split("=", 1) for f in line.split()[1:])
            return fields["ops"], fields["store_a_read_s"]
    log("untraced run printed no trace_baseline line")
    sys.exit(1)


def run_one(binary, workload, args):
    """One benchmark run; returns the stdout lines, the last being the result."""
    deadline = time.monotonic() + RUN_CAP_S
    common = ["--workload", workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--serve-rate", str(args.serve_rate)]
    untraced = run_binary(binary, common + ["--trace", "0"], workload, deadline)
    result_of(untraced, workload)
    if not args.trace:
        return untraced
    # The traced run is one round repeating the untraced run's first round
    # op for op, so its store-A read time compares with that round's
    # (bench.trace_overhead_frac).
    sys.stderr.write("\n".join(untraced) + "\n")
    ops, read_s = trace_baseline(untraced)
    traced = run_binary(binary, common + [
        "--trace", "1", "--ops", ops, "--baseline-read-s", read_s], workload, deadline)
    result_of(traced, workload)
    return traced


def default_serve_rate():
    """serve's rate is fixed in BENCHMARK.json's command line."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    try:
        with open(path) as f:
            command = json.load(f)["command"]
        return float(command[command.index("--serve-rate") + 1])
    except (OSError, ValueError, KeyError, IndexError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--serve-rate", type=float, default=None,
                        help="serve's Poisson arrival rate in requests/s")
    args = parser.parse_args()
    if args.serve_rate is None:
        args.serve_rate = default_serve_rate()
    if args.serve_rate is None or args.serve_rate <= 0:
        log("no serve rate: pass --serve-rate or keep it in BENCHMARK.json")
        sys.exit(1)

    binary = build()
    if args.workload != "all":
        lines = run_one(binary, args.workload, args)
        print("\n".join(lines), flush=True)
        return
    for workload in WORKLOADS:
        lines = run_one(binary, workload, args)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        print("\n".join(lines[:-1]), flush=True)


if __name__ == "__main__":
    main()
