#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and prints, per
end-to-end metric, the median over the runs and the spread (interquartile
range over median) next to the metric's bound in BENCHMARK.json.

  python3 engine_bench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                                 [--workload NAME ...]

Each run uses another seed. Also reports whether the kernel calibration
picked the same kernel in every run. Exits non-zero when any run fails.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    extra = spec["command"][2:]  # run.py's fixed arguments (the serve rate)

    status = 0
    for workload in args.workload or names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        kernels = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, RUN] + extra + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-4000:])
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                status = 1
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                if name in values:
                    values[name].append(m["value"])
            kernels.update(re.findall(r"kernel_w8=(\w+)", proc.stdout))
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each")
        print(f"  {'metric':16s} {'unit':6s} {'median':>14s} {'spread':>8s} "
              f"{'bound':>6s} {'spread/bound':>12s}   per-run values")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {m['name']:16s} {m['unit']:6s} {med:14.6f} {spread:8.4f} "
                  f"{m['bound']:6.2f} {spread / m['bound']:12.2f}   "
                  + " ".join(f"{v:.4g}" for v in vals))
        agree = "yes" if len(kernels) <= 1 else "NO"
        print(f"  calibrated kernel (w8) across runs: {', '.join(sorted(kernels)) or '?'}"
              f" (agree: {agree})", flush=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
