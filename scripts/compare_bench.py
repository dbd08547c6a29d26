#!/usr/bin/env python3
"""Validate recorded BENCH_*.json perf artifacts before CI archives them.

Usage: compare_bench.py BENCH_FILE [BENCH_FILE...]

This is a *trend gate, not a noise gate*: shared CI runners make absolute
numbers meaningless run-to-run, so nothing here fails on a slow result.
What it does fail on is a broken recording — the situations where the
archived trajectory silently stops being usable:

  - a file that is missing, empty, or not valid JSON;
  - schema drift: missing `bench`/`schema_version`/`env`/`rows`, or rows
    without a `section` tag;
  - a bench that stopped emitting its headline metric, or emits it
    malformed (wrong type, non-finite, or a throughput/rate of <= 0 —
    a sure sign the measurement under it never ran).

Per-bench headline requirements live in HEADLINE_REQUIREMENTS; benches
without an entry get schema validation only, so new benches can start
emitting JSON before they commit to a headline contract.
"""

import json
import math
import sys

# bench name -> list of (row section, key, requirement) triples that must
# appear in at least one row of that section. Requirements:
#   "number"       — int/float, finite
#   "positive"     — number, finite, > 0
#   "string"       — non-empty string
#   "bool"         — boolean
#   "bounded:<max>" — number, finite, 0 <= value <= max. Unlike the others
#                    this IS a perf gate: it holds a recorded ratio to a
#                    budget (e.g. disarmed-failpoint overhead <= 2%). Use
#                    it only for self-relative metrics that divide out
#                    machine speed, never for absolute throughputs.
HEADLINE_REQUIREMENTS = {
    "e12_crack_kernels": [
        ("headline", "branchy_mrows_per_s", "positive"),
        ("headline", "speedup", "positive"),
        # PR 8 headlines. Positivity only: on hosts without AVX2/NEON the
        # kSimd rows run the scalar blocked classifier, so ratios near 1.0
        # are legitimate there (the `note` field says which case applies).
        ("headline", "unrolled_mrows_per_s", "positive"),
        ("headline", "simd_mrows_per_s", "positive"),
        ("headline", "simd_vs_unrolled", "positive"),
        ("headline", "three_way_single_mrows_per_s", "positive"),
        ("headline", "three_way_twopass_mrows_per_s", "positive"),
        ("headline", "three_way_speedup", "positive"),
        ("headline", "simd_available", "bool"),
        ("headline", "note", "string"),
        # The single-pass vs two-pass matrix and the kernel rule in force
        # must be on record with every archived run.
        ("three_way", "mrows_per_s", "positive"),
        ("calibration", "kernel_w4", "string"),
        ("calibration", "kernel_w8", "string"),
        ("calibration", "isa", "string"),
        ("calibration", "min_piece_w4", "positive"),
        # Robustness acceptance (docs/ROBUSTNESS.md): disarmed failpoint
        # gates may cost at most 2% of cracked-query time. The metric is a
        # ratio of two measurements from the same run, so it is stable on
        # shared runners where absolute numbers are not.
        ("failpoint_overhead", "gate_ns", "number"),
        ("failpoint_overhead", "gates_evaluated", "number"),
        ("headline", "failpoint_overhead_pct", "bounded:2"),
        # Converged Sums: ns per Sum with the core summed from the cracker
        # index's cached piece sums vs streamed, the stream/index ratio at
        # the 14,680-value core, and there the first SumIndexed after a
        # fresh range's cracks against a repeat. Positivity only: the
        # ratios are recorded, not gated.
        ("converged_sum", "ns_per_sum", "positive"),
        ("headline", "converged_sum_speedup", "positive"),
        ("headline", "converged_sum_first_vs_repeat", "positive"),
    ],
    "e11_parallel_scaling": [
        ("headline", "striped_qps", "positive"),
        ("headline", "mutex_qps", "positive"),
        ("headline", "striped_vs_mutex", "positive"),
        ("headline", "metric", "string"),
        # The latch axis itself must be present: at least one recorded row
        # per latch mode (see docs/BENCHMARKS.md, e11).
        ("latch_sweep", "qps", "positive"),
        # The write-mix axis (striped write path vs partition mutex) and
        # its own headline: the worst striped-write/mutex ratio at 20%
        # writes across the thread sweep.
        ("write_mix_sweep", "ops_per_s", "positive"),
        ("headline", "striped_write_min_ratio", "positive"),
        # The multi-column write-mix axis (every write fans out to all
        # three columns) and its headline: the worst multi-column
        # striped-write/mutex ratio across the thread sweep.
        ("multicol_write_mix", "ops_per_s", "positive"),
        ("headline", "multicol_min_ratio", "positive"),
    ],
    "e13_sharded": [
        # The shard-count axis must be on record for both routing kinds,
        # plus the rebalance cost row (rows moved per second and the
        # carried-cut count proving index investment survived the move)
        # and the range-routed scaling headline (docs/DISTRIBUTION.md).
        # Positivity only: scatter scaling needs physical cores, and the
        # checksum cross-check inside the bench already guards exactness.
        ("shard_sweep", "qps", "positive"),
        ("rebalance", "rows_per_s", "positive"),
        ("rebalance", "cuts_carried", "number"),
        ("headline", "shard_scaling", "positive"),
        ("headline", "routing", "string"),
    ],
    "e4_updates": [
        # Merge-policy totals must be present for both the single-column
        # series and the row-atomic multi-column write mix, plus the
        # multi-column throughput headline (docs/UPDATES.md §5).
        ("series", "total_s", "positive"),
        ("pressure_sweep", "total_s", "positive"),
        ("multicol_write_mix", "ops_per_s", "positive"),
        # Mean wall time of one row-atomic Database::Delete in the mix.
        ("multicol_write_mix", "delete_us_mean", "positive"),
        ("headline", "multicol_ops_per_s", "positive"),
        ("headline", "best_policy", "string"),
    ],
}


def fail(path, message):
    print(f"compare_bench: FAIL {path}: {message}", file=sys.stderr)
    return 1


def check_value(value, requirement):
    if requirement == "string":
        return isinstance(value, str) and value != ""
    if requirement == "bool":
        return isinstance(value, bool)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    if not math.isfinite(value):
        return False
    if requirement == "positive":
        return value > 0
    if requirement.startswith("bounded:"):
        return 0 <= value <= float(requirement.split(":", 1)[1])
    return True  # "number"


def validate_schema(path, doc):
    errors = 0
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        errors += fail(path, "missing or non-string `bench`")
    if doc.get("schema_version") != 1:
        errors += fail(path, f"unsupported schema_version {doc.get('schema_version')!r}")
    env = doc.get("env")
    if not isinstance(env, dict) or not all(
        isinstance(env.get(k), int) and env.get(k) > 0 for k in ("n", "q")
    ):
        errors += fail(path, "missing or malformed `env` (needs positive ints n, q)")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors += fail(path, "missing or empty `rows`")
        return errors
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not isinstance(row.get("section"), str):
            errors += fail(path, f"row {i} has no `section` tag")
    return errors


def validate_headlines(path, doc):
    bench = doc.get("bench")
    requirements = HEADLINE_REQUIREMENTS.get(bench)
    if requirements is None:
        print(f"compare_bench: OK   {path}: schema valid "
              f"(no headline contract registered for {bench!r})")
        return 0
    rows = [r for r in doc.get("rows", []) if isinstance(r, dict)]
    errors = 0
    missing_sections = set()
    for section, key, requirement in requirements:
        in_section = [r for r in rows if r.get("section") == section]
        if not in_section:
            if section not in missing_sections:
                missing_sections.add(section)
                errors += fail(path, f"no `{section}` row recorded")
            continue
        if not any(key in r and check_value(r[key], requirement) for r in in_section):
            errors += fail(
                path,
                f"`{section}` rows carry no well-formed `{key}` ({requirement})",
            )
    if errors == 0:
        headline = next((r for r in rows if r.get("section") == "headline"), {})
        summary = ", ".join(
            f"{key}={headline[key]}" for _, key, _ in requirements
            if key in headline and not isinstance(headline[key], str)
        )
        print(f"compare_bench: OK   {path}: {summary}")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = 0
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as e:
            errors += fail(path, f"cannot read: {e}")
            continue
        except json.JSONDecodeError as e:
            errors += fail(path, f"invalid JSON: {e}")
            continue
        schema_errors = validate_schema(path, doc)
        errors += schema_errors
        if schema_errors == 0:
            errors += validate_headlines(path, doc)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
