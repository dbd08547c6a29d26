#!/usr/bin/env bash
# Configure, build, and run the full test suite in one command — the
# tier-1 verification line from ROADMAP.md. Usage: scripts/check.sh
# Extra cmake configure arguments are passed through, e.g.:
#   scripts/check.sh -DCMAKE_BUILD_TYPE=Debug
#
# scripts/check.sh --tsan builds the concurrency suites under
# ThreadSanitizer (separate build-tsan/ tree; benches and examples off for
# speed) and runs every test carrying the `concurrency` ctest label — the
# same job CI runs. New parallel suites opt in by joining
# AIDX_CONCURRENCY_TEST_SUITES in CMakeLists.txt (a name filter here would
# silently skip them).
#
# scripts/check.sh --asan builds the full test suite under
# AddressSanitizer + UndefinedBehaviorSanitizer (separate build-asan/
# tree) — ripple merges, delta buffers, segment appends, and the
# row-atomic table-DML suites (table_dml_test, sideways_update_test) are
# exactly where memory bugs hide. It is also the one build without
# NDEBUG, so every AIDX_DCHECK runs there. Also a CI job.
#
# scripts/check.sh --bench-smoke builds bench_e12_crack_kernels,
# bench_e11_parallel_scaling, bench_e4_updates, and bench_e13_sharded
# and runs them at reduced scale with --json,
# then gates the emitted BENCH_*.json (build/bench-artifacts/) through
# scripts/compare_bench.py — schema plus per-bench headline metrics (a
# trend gate, not a noise gate). CI runs this on every push and uploads
# the JSONs as artifacts — the repo's recorded perf trajectory. Scale
# overrides: AIDX_N / AIDX_Q as usual. It then runs every engine_bench
# workload for one second (built under build/engine-bench): each answer
# is replayed against the bench's independent oracle, and a wrong answer,
# a build failure or the wall-clock cap fails the smoke. Its timings are
# not gated.
#
# scripts/check.sh --faults [schedule] runs the fault-injection chaos
# harness under ThreadSanitizer: same build-tsan/ tree as --tsan, but the
# concurrency-labeled suites run with AIDX_FAULT_SCHEDULE set to the named
# schedule (quiet | delays | errors | mixed | dist | load; default mixed —
# see docs/ROBUSTNESS.md, and docs/DISTRIBUTION.md for dist) and a fresh
# random AIDX_FAULT_SEED unless one is already exported. The seed is echoed
# up front and by the harness itself, so any failure reproduces with the
# printed one-liner. `load` is the scheduling fault: the quiet schedule,
# oversubscribed by one busy-loop process per CPU for the whole run (killed
# on exit), every test repeated until it fails or passes ten times — the
# preemption that exposes quiescence and ordering races.
#
# scripts/check.sh --surface builds nothing and prints two size counts of
# the library: the lines under src/, and its settable option fields —
# every data member with a default initializer declared directly in a
# struct named *Options, Options or StrategyConfig under src/.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--surface" ]]; then
  files=$(find src -type f \( -name '*.h' -o -name '*.cc' \) | sort)
  # shellcheck disable=SC2086
  echo "src lines: $(cat $files | wc -l)"
  # shellcheck disable=SC2086
  fields=$(awk '
    FNR == 1 { depth = 0 }
    depth == 0 && /^[[:space:]]*struct[[:space:]]+([A-Za-z_]*Options|StrategyConfig)[[:space:]]*\{/ {
      depth = 1
      next
    }
    depth > 0 {
      line = $0
      sub(/\/\/.*/, "", line)
      if (depth == 1 && line !~ /^[[:space:]]*(static|friend|using|return)[[:space:]]/ &&
          line ~ /^[[:space:]]*[A-Za-z_][^(]*[A-Za-z0-9_][[:space:]]*(=[^=]|\{)[^;]*;/) {
        n++
      }
      depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
    }
    END { print n + 0 }' $files)
  echo "settable option fields: $fields"
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  shift
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DAIDX_BUILD_BENCHMARKS=OFF \
    -DAIDX_BUILD_EXAMPLES=OFF \
    "$@"
  cmake --build build-tsan -j "$(nproc)"
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -L concurrency
  exit 0
fi

if [[ "${1:-}" == "--faults" ]]; then
  shift
  schedule="mixed"
  if [[ $# -gt 0 && "${1}" != -* ]]; then
    schedule="$1"
    shift
  fi
  case "$schedule" in
    quiet|delays|errors|mixed|dist|load) ;;
    *)
      echo "check.sh --faults: unknown schedule '$schedule'" \
        "(expected quiet|delays|errors|mixed|dist|load)" >&2
      exit 2
      ;;
  esac
  seed="${AIDX_FAULT_SEED:-$((RANDOM * 32768 + RANDOM))}"
  echo "faults: schedule=$schedule seed=$seed" \
    "(reproduce: AIDX_FAULT_SEED=$seed scripts/check.sh --faults $schedule)"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DAIDX_BUILD_BENCHMARKS=OFF \
    -DAIDX_BUILD_EXAMPLES=OFF \
    "$@"
  cmake --build build-tsan -j "$(nproc)"
  harness_schedule="$schedule"
  repeat=()
  if [[ "$schedule" == "load" ]]; then
    harness_schedule="quiet"
    repeat=(--repeat until-fail:10)
    hogs=()
    trap 'kill "${hogs[@]}" 2>/dev/null || true' EXIT
    for _ in $(seq "$(nproc)"); do
      (while :; do :; done) &
      hogs+=("$!")
    done
  fi
  AIDX_FAULT_SCHEDULE="$harness_schedule" AIDX_FAULT_SEED="$seed" \
    ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -L concurrency "${repeat[@]}"
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  shift
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DAIDX_BUILD_BENCHMARKS=OFF \
    -DAIDX_BUILD_EXAMPLES=OFF \
    "$@"
  cmake --build build-asan -j "$(nproc)"
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
  exit 0
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
  shift
  cmake -B build -S . "$@"
  cmake --build build -j "$(nproc)" \
    --target bench_e12_crack_kernels bench_e11_parallel_scaling bench_e4_updates \
             bench_e13_sharded
  mkdir -p build/bench-artifacts
  AIDX_N="${AIDX_N:-200000}" AIDX_Q="${AIDX_Q:-128}" AIDX_CSV_DIR="" \
    AIDX_JSON_DIR=build/bench-artifacts \
    ./build/bench_e12_crack_kernels --json
  AIDX_N="${AIDX_N:-200000}" AIDX_Q="${AIDX_Q:-256}" AIDX_CSV_DIR="" \
    AIDX_JSON_DIR=build/bench-artifacts \
    ./build/bench_e11_parallel_scaling --json
  AIDX_N="${AIDX_N:-200000}" AIDX_Q="${AIDX_Q:-256}" AIDX_CSV_DIR="" \
    AIDX_JSON_DIR=build/bench-artifacts \
    ./build/bench_e4_updates --json
  AIDX_N="${AIDX_N:-200000}" AIDX_Q="${AIDX_Q:-256}" AIDX_CSV_DIR="" \
    AIDX_JSON_DIR=build/bench-artifacts \
    ./build/bench_e13_sharded --json
  test -s build/bench-artifacts/BENCH_e12_crack_kernels.json
  test -s build/bench-artifacts/BENCH_e11_parallel_scaling.json
  test -s build/bench-artifacts/BENCH_e4_updates.json
  test -s build/bench-artifacts/BENCH_e13_sharded.json
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/compare_bench.py \
      build/bench-artifacts/BENCH_e12_crack_kernels.json \
      build/bench-artifacts/BENCH_e11_parallel_scaling.json \
      build/bench-artifacts/BENCH_e4_updates.json \
      build/bench-artifacts/BENCH_e13_sharded.json
    CARGO_TARGET_DIR=build/engine-bench \
      python3 engine_bench/run.py --workload all --seed 1 --seconds 1
  else
    echo "bench-smoke: python3 unavailable; skipped compare_bench.py gate" \
      "and the engine_bench oracle smoke" >&2
  fi
  exit 0
fi

cmake -B build -S . "$@"
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"
