// E10 — Micro-benchmarks backing the cost narrative (google-benchmark):
// the primitive operations whose relative costs explain every figure —
// scan, sort, binary search, crack-in-two/three, B+ tree ops, AVL ops.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/crack_ops.h"
#include "core/cracker_column.h"
#include "index/avl_tree.h"
#include "index/btree.h"
#include "index/scan.h"
#include "index/sorted_index.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/data_generator.h"

namespace aidx {
namespace {

std::vector<std::int64_t> Data(std::size_t n) {
  return GenerateData({.n = n, .domain = static_cast<std::int64_t>(n), .seed = 7});
}

void BM_ScanCount(benchmark::State& state) {
  const auto data = Data(static_cast<std::size_t>(state.range(0)));
  const auto pred = RangePredicate<std::int64_t>::Between(100, 100 + state.range(0) / 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanCount<std::int64_t>(data, pred));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanCount)->Arg(1 << 18)->Arg(1 << 21);

// The aggregate kernel alone, at the per-leg Sum sizes of the engine
// benchmark's serve (92), write_mix (1,835) and converge (14,680)
// workloads. Second arg: 0 = scalar form, 1 = AVX2 form.
void BM_SumValues(benchmark::State& state) {
  const auto data = Data(static_cast<std::size_t>(state.range(0)));
  const std::span<const std::int64_t> values(data);
  const bool avx2 = state.range(1) == 1;
#if defined(AIDX_SIMD_AVX2)
  if (avx2 && !internal::SimdKernelAvailable()) {
    state.SkipWithError("AVX2 not available on this host");
    return;
  }
#else
  if (avx2) {
    state.SkipWithError("AVX2 form not compiled for this ISA");
    return;
  }
#endif
  for (auto _ : state) {
#if defined(AIDX_SIMD_AVX2)
    const Int128 sum = avx2 ? internal::SumValuesAvx2<std::int64_t>(values)
                            : internal::SumValuesScalar<std::int64_t>(values);
#else
    const Int128 sum = internal::SumValuesScalar<std::int64_t>(values);
#endif
    benchmark::DoNotOptimize(RoundSum<std::int64_t>(sum));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SumValues)->ArgsProduct({{92, 1835, 14680}, {0, 1}});

// The masked kernel through the scan fallback's entry point; the
// predicate keeps about half the values.
void BM_ScanSum(benchmark::State& state) {
  const auto data = Data(static_cast<std::size_t>(state.range(0)));
  const auto pred = RangePredicate<std::int64_t>::Between(0, state.range(0) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanSum<std::int64_t>(data, pred));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanSum)->Arg(92)->Arg(1835)->Arg(14680);

void BM_FullSortBuild(benchmark::State& state) {
  const auto data = Data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    FullSortIndex<std::int64_t> index(data);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullSortBuild)->Arg(1 << 18)->Arg(1 << 21);

void BM_BinarySearchQuery(benchmark::State& state) {
  const auto data = Data(1 << 21);
  const FullSortIndex<std::int64_t> index(data);
  Rng rng(3);
  for (auto _ : state) {
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(1 << 21));
    benchmark::DoNotOptimize(
        index.CountRange(RangePredicate<std::int64_t>::Between(lo, lo + 2048)));
  }
}
BENCHMARK(BM_BinarySearchQuery);

// Crack primitives per kernel (second arg: 0 = branchy, 1 = unrolled,
// 2 = simd — CrackKernel's enumerator order). bench_e12 is
// the full shootout; these registrations keep the kernels visible in the
// micro suite's one-stop cost table.
void BM_CrackInTwo(benchmark::State& state) {
  const auto base = Data(static_cast<std::size_t>(state.range(0)));
  const auto kernel = static_cast<CrackKernel>(state.range(1));
  const Cut<std::int64_t> cut{state.range(0) / 2, CutKind::kLess};
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = base;
    state.ResumeTiming();
    benchmark::DoNotOptimize(CrackInTwo<std::int64_t>(copy, {}, cut, kernel));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(CrackKernelName(kernel));
}
BENCHMARK(BM_CrackInTwo)
    ->ArgNames({"n", "kernel"})
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 1})
    ->Args({1 << 18, 2})
    ->Args({1 << 21, 0})
    ->Args({1 << 21, 1})
    ->Args({1 << 21, 2})
    ->Iterations(30);

void BM_CrackInTwoTandem(benchmark::State& state) {
  const auto base = Data(static_cast<std::size_t>(state.range(0)));
  const auto kernel = static_cast<CrackKernel>(state.range(1));
  const Cut<std::int64_t> cut{state.range(0) / 2, CutKind::kLess};
  std::vector<row_id_t> rids(base.size());
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = base;
    for (std::size_t i = 0; i < rids.size(); ++i) rids[i] = static_cast<row_id_t>(i);
    state.ResumeTiming();
    benchmark::DoNotOptimize(CrackInTwo<std::int64_t>(
        copy, std::span<row_id_t>(rids), cut, kernel));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(CrackKernelName(kernel));
}
BENCHMARK(BM_CrackInTwoTandem)
    ->ArgNames({"n", "kernel"})
    ->Args({1 << 21, 0})
    ->Args({1 << 21, 1})
    ->Args({1 << 21, 2})
    ->Iterations(30);

void BM_CrackInThree(benchmark::State& state) {
  const auto base = Data(static_cast<std::size_t>(state.range(0)));
  const auto kernel = static_cast<CrackKernel>(state.range(1));
  const Cut<std::int64_t> lo{state.range(0) / 3, CutKind::kLess};
  const Cut<std::int64_t> hi{2 * state.range(0) / 3, CutKind::kLessEq};
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = base;
    state.ResumeTiming();
    benchmark::DoNotOptimize(CrackInThree<std::int64_t>(copy, {}, lo, hi, kernel));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(CrackKernelName(kernel));
}
BENCHMARK(BM_CrackInThree)
    ->ArgNames({"n", "kernel"})
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 1})
    ->Args({1 << 18, 2})
    ->Args({1 << 21, 0})
    ->Args({1 << 21, 1})
    ->Args({1 << 21, 2})
    ->Iterations(30);

void BM_CrackedQuerySequence(benchmark::State& state) {
  // Per-query cost after `range` queries of warm-up: shows convergence.
  const auto data = Data(1 << 21);
  for (auto _ : state) {
    state.PauseTiming();
    CrackerColumn<std::int64_t> col(data, {.with_row_ids = false});
    Rng rng(5);
    for (int i = 0; i < state.range(0); ++i) {
      const auto lo = static_cast<std::int64_t>(rng.NextBounded(1 << 21));
      col.Count(RangePredicate<std::int64_t>::Between(lo, lo + 2048));
    }
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(1 << 21));
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        col.Count(RangePredicate<std::int64_t>::Between(lo, lo + 2048)));
  }
}
// Heavy warm-up per iteration: cap iterations so the suite stays fast.
BENCHMARK(BM_CrackedQuerySequence)->Arg(0)->Iterations(20);
BENCHMARK(BM_CrackedQuerySequence)->Arg(10)->Iterations(20);
BENCHMARK(BM_CrackedQuerySequence)->Arg(100)->Iterations(10);
BENCHMARK(BM_CrackedQuerySequence)->Arg(1000)->Iterations(5);

// Fault-injection gate cost (docs/ROBUSTNESS.md). The disarmed fast path
// is a single relaxed atomic load; rebuilding with -DAIDX_NO_FAILPOINTS=ON
// compiles the same call to nothing, so running this pair in both builds
// measures the framework's true overhead floor. The cracked-query numbers
// above already run through gated piece loops, so the two builds also
// disagree by exactly the end-to-end gate cost there.
void BM_FailpointDisarmedGate(benchmark::State& state) {
  failpoints::crack_piece.Disarm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(failpoints::crack_piece.Inject().ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailpointDisarmedGate);

void BM_FailpointArmedDelayZero(benchmark::State& state) {
  // Armed-but-inert cost: the slow path with a zero-delay policy — what a
  // chaos run pays on gates whose fault never fires this evaluation.
  FailpointPolicy policy;
  policy.mode = FailpointMode::kDelay;
  policy.delay_micros = 0;
  failpoints::crack_piece.Arm(policy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(failpoints::crack_piece.Inject().ok());
  }
  failpoints::crack_piece.Disarm();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailpointArmedDelayZero);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree<std::int64_t> tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(static_cast<std::int64_t>(rng.NextBounded(1 << 20)));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1 << 12)->Arg(1 << 15);

void BM_BTreeBulkLoad(benchmark::State& state) {
  auto data = Data(static_cast<std::size_t>(state.range(0)));
  std::sort(data.begin(), data.end());
  for (auto _ : state) {
    BPlusTree<std::int64_t> tree;
    tree.BulkLoadSorted(data);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(1 << 18);

void BM_BTreeRangeCount(benchmark::State& state) {
  auto data = Data(1 << 20);
  std::sort(data.begin(), data.end());
  BPlusTree<std::int64_t> tree;
  tree.BulkLoadSorted(data);
  Rng rng(9);
  for (auto _ : state) {
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(1 << 20));
    benchmark::DoNotOptimize(
        tree.CountRange(RangePredicate<std::int64_t>::Between(lo, lo + 1024)));
  }
}
BENCHMARK(BM_BTreeRangeCount);

void BM_AvlInsertLookup(benchmark::State& state) {
  Rng rng(11);
  for (auto _ : state) {
    AvlTree<std::int64_t, std::size_t> tree;
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(static_cast<std::int64_t>(rng.NextBounded(1 << 20)), i);
    }
    benchmark::DoNotOptimize(tree.FindFloor(1 << 19));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AvlInsertLookup)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace
}  // namespace aidx

BENCHMARK_MAIN();
