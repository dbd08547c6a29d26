// Striped piece-latch correctness (docs/CONCURRENCY.md §4–§5):
//
//  - differential oracles: single-threaded, Count/Sum must equal a scan
//    over the base, AND the column must make the same adaptation decisions
//    (crack counts, touched values) as a twin column of the same class
//    driven through Select() — which runs every inner CrackerColumn's own
//    Select under whole-partition exclusion, so the striped fast path must
//    mirror it decision-for-decision;
//  - stripe collisions: with a 1- or 2-entry latch table every piece maps
//    to the same stripe(s), so disjoint-piece cracks serialize through
//    latch collisions — answers must stay exact under full contention;
//  - high-thread mixed read/write stress with foreground and with
//    background merging, with ValidatePieces() and exact total balancing
//    afterwards;
//  - same-partition concurrent cracking (num_partitions = 1): the exact
//    contention the striped table exists to relieve — every query cracks
//    the one partition, results checked against a scan oracle.
//
// Runs under ThreadSanitizer via the `concurrency` ctest label
// (scripts/check.sh --tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "exec/access_path.h"
#include "index/scan.h"
#include "parallel/partitioned_cracker_column.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;
using Column = PartitionedCrackerColumn<std::int64_t>;

std::vector<std::int64_t> RandomValues(std::size_t n, std::int64_t domain,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(domain));
  return v;
}

Pred RandomPredicate(Rng* rng, std::int64_t domain) {
  const auto a = rng->NextInRange(-5, domain + 5);
  const auto width = rng->NextInRange(0, domain / 4);
  const auto kind = [&]() -> BoundKind {
    switch (rng->NextBounded(3)) {
      case 0: return BoundKind::kInclusive;
      case 1: return BoundKind::kExclusive;
      default: return BoundKind::kUnbounded;
    }
  };
  return Pred{a, kind(), a + width, kind()};
}

PartitionedCrackerOptions StripedOptions(std::size_t partitions,
                                         std::size_t stripes = 16) {
  PartitionedCrackerOptions options;
  options.num_partitions = partitions;
  options.latch_stripes = stripes;
  return options;
}

// The Select-driven twin's answers: each partition's resolved core plus
// its predicate-filtered edge pieces, read from the twin's own arrays.
std::size_t TwinCount(Column& twin, const Pred& p) {
  std::size_t count = 0;
  for (const PartitionSelect& ps : twin.Select(p).partitions) {
    const std::span<const std::int64_t> values =
        twin.partition(ps.partition).values();
    count += ps.sel.core.size();
    for (int i = 0; i < ps.sel.num_edges; ++i) {
      const PositionRange e = ps.sel.edges[i];
      count += ScanCount<std::int64_t>(values.subspan(e.begin, e.size()), p);
    }
  }
  return count;
}

long double TwinSum(Column& twin, const Pred& p) {
  long double sum = 0;
  for (const PartitionSelect& ps : twin.Select(p).partitions) {
    const std::span<const std::int64_t> values =
        twin.partition(ps.partition).values();
    sum += ScanSum<std::int64_t>(
        values.subspan(ps.sel.core.begin, ps.sel.core.size()), Pred::All());
    for (int i = 0; i < ps.sel.num_edges; ++i) {
      const PositionRange e = ps.sel.edges[i];
      sum += ScanSum<std::int64_t>(values.subspan(e.begin, e.size()), p);
    }
  }
  return sum;
}

void ExpectStatsEqual(const CrackerStats& a, const CrackerStats& b) {
  EXPECT_EQ(a.num_selects, b.num_selects);
  EXPECT_EQ(a.num_crack_in_two, b.num_crack_in_two);
  EXPECT_EQ(a.num_crack_in_three, b.num_crack_in_three);
  EXPECT_EQ(a.num_stochastic_cracks, b.num_stochastic_cracks);
  EXPECT_EQ(a.values_touched, b.values_touched);
}

// The core differential pin: same queries, same order — answers equal to a
// scan over the base, and physical adaptation (crack counts and
// touched-value totals) identical to the Select-driven twin, because
// single-threaded the striped fast path must make exactly the inner
// column's decisions. Count and Sum each resolve once, so the twin
// selects twice per query.
TEST(StripedLatchTest, DifferentialCountSumMatchesPartitionMutexOracle) {
  const auto base = RandomValues(20000, 4000, 71);
  Column striped(base, StripedOptions(8));
  Column twin(base, StripedOptions(8));
  Rng rng(72);
  for (int q = 0; q < 300; ++q) {
    const Pred p = RandomPredicate(&rng, 4000);
    const std::size_t count = ScanCount<std::int64_t>(base, p);
    const long double sum = ScanSum<std::int64_t>(base, p);
    ASSERT_EQ(striped.Count(p), count) << p.ToString();
    ASSERT_EQ(striped.Sum(p), sum) << p.ToString();
    ASSERT_EQ(TwinCount(twin, p), count) << p.ToString();
    ASSERT_EQ(TwinSum(twin, p), sum) << p.ToString();
  }
  ExpectStatsEqual(striped.AggregatedStats(), twin.AggregatedStats());
  EXPECT_TRUE(striped.ValidatePieces());
  EXPECT_TRUE(twin.ValidatePieces());
}

// Differential pin with writes in the mix, for every merge policy: pending
// updates force the overlay or coarse read paths, whose answers must equal
// the vector model's on every query.
TEST(StripedLatchTest, DifferentialWithUpdatesAllMergePolicies) {
  for (const MergePolicy policy :
       {MergePolicy::kRipple, MergePolicy::kComplete, MergePolicy::kGradual}) {
    constexpr std::int64_t kDomain = 2000;
    auto model = RandomValues(8000, kDomain, 73);
    PartitionedCrackerOptions options = StripedOptions(6);
    options.merge_policy = policy;
    Column striped(model, options);
    Rng rng(74);
    for (int step = 0; step < 500; ++step) {
      const auto dice = rng.NextBounded(10);
      if (dice < 3) {
        const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        striped.Insert(v);
        model.push_back(v);
      } else if (dice < 5 && !model.empty()) {
        const std::size_t pick = rng.NextBounded(model.size());
        const std::int64_t v = model[pick];
        ASSERT_TRUE(striped.Delete(v)) << "step " << step;
        model[pick] = model.back();
        model.pop_back();
      } else {
        const Pred p = RandomPredicate(&rng, kDomain);
        ASSERT_EQ(striped.Count(p), ScanCount<std::int64_t>(model, p))
            << MergePolicyName(policy) << " step " << step << " " << p.ToString();
      }
    }
    EXPECT_EQ(striped.size(), model.size());
    EXPECT_EQ(striped.Count(Pred::All()), model.size());
    EXPECT_TRUE(striped.ValidatePieces());
  }
}

// Latch-stripe collisions: a 1-entry table maps every piece to one stripe
// (total collision — disjoint-piece cracks all contend on the same latch),
// a 2-entry table forces the "two pieces hash to one stripe" case
// constantly. Neither may change any answer.
TEST(StripedLatchTest, StripeCollisionsStaySound) {
  constexpr std::int64_t kDomain = 3000;
  const auto base = RandomValues(24000, kDomain, 75);
  for (const std::size_t stripes : {std::size_t{1}, std::size_t{2}}) {
    Column col(base, StripedOptions(4, stripes));
    ASSERT_EQ(col.latch_stripes(), stripes);

    constexpr std::size_t kThreads = 8;
    constexpr int kQueriesPerThread = 120;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(7000 + t);
        for (int q = 0; q < kQueriesPerThread; ++q) {
          const Pred p = RandomPredicate(&rng, kDomain);
          if (col.Count(p) != ScanCount<std::int64_t>(base, p)) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << stripes << " stripes";
    EXPECT_TRUE(col.ValidatePieces()) << stripes << " stripes";
  }
}

// The contention the striped table exists to relieve: one partition, so
// every concurrent query cracks the same partition and overlap is possible
// only at piece granularity. Answers stay exact and invariants hold.
TEST(StripedLatchTest, SamePartitionConcurrentCrackStress) {
  constexpr std::size_t kThreads = 8;
  constexpr int kQueriesPerThread = 150;
  constexpr std::int64_t kDomain = 2000;
  const auto base = RandomValues(30000, kDomain, 77);
  Column col(base, StripedOptions(1));
  ASSERT_EQ(col.num_partitions(), 1u);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(8000 + t);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const Pred p = RandomPredicate(&rng, kDomain);
        if (q % 3 == 0) {
          // Sum exercises the shared-stripe value-read path under the same
          // contention (int64 sums at this scale are exact in long double).
          if (col.Sum(p) != ScanSum<std::int64_t>(base, p)) {
            failures.fetch_add(1);
          }
        } else if (col.Count(p) != ScanCount<std::int64_t>(base, p)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(col.ValidatePieces());
}

// §5's "invariants survive" check: high-thread mixed read/write stress,
// then ValidatePieces() — in both merge modes: foreground (no pool; pending
// updates fold on the coarse read path) and background (a pool-run merge
// machine absorbing buffered writes while readers use the overlay path).
// Writers insert fresh values above the base domain (so only their inserter
// deletes them), readers count throughout; afterwards totals must balance
// exactly and every piece invariant must hold.
TEST(StripedLatchTest, ValidatePiecesAfterMixedStressBothModes) {
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{16}}) {
    constexpr std::size_t kWriters = 4;
    constexpr std::size_t kReaders = 4;
    constexpr int kOpsPerThread = 300;
    constexpr std::int64_t kDomain = 2000;
    const auto base = RandomValues(16000, kDomain, 79);
    ThreadPool pool(2);
    PartitionedCrackerOptions options = StripedOptions(8);
    options.background_merge_threshold = threshold;
    Column col(base, options, threshold > 0 ? &pool : nullptr);

    std::atomic<std::size_t> inserted{0};
    std::atomic<std::size_t> deleted{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kWriters + kReaders);
    for (std::size_t t = 0; t < kWriters; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(9000 + t);
        std::vector<std::int64_t> own;
        for (int i = 0; i < kOpsPerThread; ++i) {
          if (own.empty() || rng.NextBounded(3) != 0) {
            const auto v = static_cast<std::int64_t>(
                kDomain + 1 + t + kWriters * rng.NextBounded(1000));
            col.Insert(v);
            own.push_back(v);
            inserted.fetch_add(1);
          } else {
            const std::size_t pick = rng.NextBounded(own.size());
            if (col.Delete(own[pick])) {
              deleted.fetch_add(1);
            } else {
              failures.fetch_add(1);
            }
            own[pick] = own.back();
            own.pop_back();
          }
        }
      });
    }
    for (std::size_t t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(9500 + t);
        for (int q = 0; q < kOpsPerThread; ++q) {
          const Pred p = RandomPredicate(&rng, kDomain);
          // Base values are never deleted: the live count is at least the
          // base's match count at all times.
          if (col.Count(p) < ScanCount<std::int64_t>(base, p)) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    col.WaitForBackgroundMerges();
    EXPECT_EQ(failures.load(), 0) << "threshold " << threshold;
    EXPECT_EQ(col.size(), base.size() + inserted.load() - deleted.load())
        << "threshold " << threshold;
    EXPECT_EQ(col.Count(Pred::All()), col.size()) << "threshold " << threshold;
    EXPECT_TRUE(col.ValidatePieces()) << "threshold " << threshold;
  }
}

TEST(StripedLatchTest, MaterializeMatchesOracleStriped) {
  const auto base = RandomValues(6000, 400, 81);
  PartitionedCrackerOptions options = StripedOptions(4);
  options.column_options.with_row_ids = true;
  Column col(base, options);
  Rng rng(82);
  for (int q = 0; q < 60; ++q) {
    const Pred p = RandomPredicate(&rng, 400);
    std::vector<std::int64_t> got;
    col.MaterializeValues(p, &got);
    std::vector<std::int64_t> expect;
    ScanValues<std::int64_t>(base, p, &expect);
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(got, expect) << p.ToString();

    std::vector<row_id_t> rids;
    col.MaterializeRowIds(p, &rids);
    std::vector<row_id_t> expect_rids;
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (p.Matches(base[i])) expect_rids.push_back(static_cast<row_id_t>(i));
    }
    std::sort(rids.begin(), rids.end());
    ASSERT_EQ(rids, expect_rids) << p.ToString();
  }
  // With a pending write the same calls must take the slow path and still
  // observe the update.
  col.Insert(113);
  std::vector<std::int64_t> got;
  col.MaterializeValues(Pred::Between(113, 113), &got);
  EXPECT_EQ(got.size(), 1 + ScanCount<std::int64_t>(base, Pred::Between(113, 113)));
}

// Stochastic cracking under the striped protocol: pre-cracks run under the
// original piece's exclusive stripes and must not change any answer (and
// single-threaded must match the Select-driven twin's stats exactly — the
// shard rng shares the inner column's seed, so both draw the same pivots).
TEST(StripedLatchTest, StochasticStripedMatchesOracle) {
  const auto base = RandomValues(30000, 6000, 83);
  PartitionedCrackerOptions options = StripedOptions(4);
  options.column_options.stochastic_threshold = 512;
  Column striped(base, options);
  Column twin(base, options);
  Rng rng(84);
  for (int q = 0; q < 150; ++q) {
    const Pred p = RandomPredicate(&rng, 6000);
    const std::size_t expect = ScanCount<std::int64_t>(base, p);
    ASSERT_EQ(striped.Count(p), expect) << p.ToString();
    ASSERT_EQ(TwinCount(twin, p), expect) << p.ToString();
  }
  ExpectStatsEqual(striped.AggregatedStats(), twin.AggregatedStats());
  EXPECT_GT(striped.AggregatedStats().num_stochastic_cracks, 0u);
  EXPECT_TRUE(striped.ValidatePieces());
}

// min_piece_size > 0 exercises the edge-piece path: sub-threshold pieces
// are scanned (under shared stripes) instead of cracked.
TEST(StripedLatchTest, MinPieceEdgesStripedMatchesOracle) {
  const auto base = RandomValues(20000, 2500, 85);
  PartitionedCrackerOptions options = StripedOptions(4);
  options.column_options.min_piece_size = 128;
  Column striped(base, options);
  Column twin(base, options);
  Rng rng(86);
  for (int q = 0; q < 200; ++q) {
    const Pred p = RandomPredicate(&rng, 2500);
    const std::size_t count = ScanCount<std::int64_t>(base, p);
    const long double sum = ScanSum<std::int64_t>(base, p);
    ASSERT_EQ(striped.Count(p), count) << p.ToString();
    ASSERT_EQ(striped.Sum(p), sum) << p.ToString();
    ASSERT_EQ(TwinCount(twin, p), count) << p.ToString();
    ASSERT_EQ(TwinSum(twin, p), sum) << p.ToString();
  }
  ExpectStatsEqual(striped.AggregatedStats(), twin.AggregatedStats());

  // Concurrent smoke on the edge path.
  constexpr std::size_t kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng trng(8600 + t);
      for (int q = 0; q < 100; ++q) {
        const Pred p = RandomPredicate(&trng, 2500);
        if (striped.Count(p) != ScanCount<std::int64_t>(base, p)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(striped.ValidatePieces());
}

TEST(StripedLatchTest, LatchStripeCountIsClamped) {
  const auto base = RandomValues(1000, 100, 87);
  Column tiny(base, StripedOptions(2, 0));
  EXPECT_EQ(tiny.latch_stripes(), 1u);
  Column huge(base, StripedOptions(2, 1000));
  EXPECT_EQ(huge.latch_stripes(), 64u);
  EXPECT_EQ(huge.Count(Pred::All()), base.size());
}

// Both cuts of a range landing in an *empty* piece must still count as one
// crack-in-three (the inner column's ResolveBothInPiece does), not
// decompose into two crack-in-twos — a stat-parity regression caught in
// review: {1,7} cracked on (2,4) leaves an empty piece between the cuts,
// and (3,3) then lands both of its cuts inside it.
TEST(StripedLatchTest, EmptyPieceThreeWayKeepsStatParity) {
  const std::vector<std::int64_t> base = {1, 7};
  Column striped(base, StripedOptions(1));
  Column twin(base, StripedOptions(1));
  for (const Pred& p : {Pred::Between(2, 4), Pred::Between(3, 3)}) {
    ASSERT_EQ(striped.Count(p), ScanCount<std::int64_t>(base, p)) << p.ToString();
    ASSERT_EQ(TwinCount(twin, p), ScanCount<std::int64_t>(base, p)) << p.ToString();
  }
  ExpectStatsEqual(striped.AggregatedStats(), twin.AggregatedStats());
  EXPECT_GT(striped.AggregatedStats().num_crack_in_three, 0u);
  EXPECT_TRUE(striped.ValidatePieces());
}

TEST(StripedLatchTest, EmptyAndDegenerateColumns) {
  Column empty(std::span<const std::int64_t>{}, StripedOptions(4));
  EXPECT_EQ(empty.Count(Pred::Between(1, 10)), 0u);
  EXPECT_TRUE(empty.ValidatePieces());

  const std::vector<std::int64_t> dupes(2000, 42);
  Column col(dupes, StripedOptions(8));
  EXPECT_EQ(col.Count(Pred::Between(42, 42)), 2000u);
  EXPECT_EQ(col.Count(Pred::LessThan(42)), 0u);
  EXPECT_TRUE(col.ValidatePieces());
}

// The latch knob is part of the strategy identity: distinct display names
// (nothing keyed on the name may alias configurations) and distinct
// configs (the Database path cache keys on the full config).
TEST(StripedLatchTest, StrategyKnobsAreDistinct) {
  const StrategyConfig striped = StrategyConfig::ParallelCrack(8, 4);
  const StrategyConfig wide = StrategyConfig::ParallelCrack(8, 4, 32);
  EXPECT_EQ(striped.DisplayName(), "pcrack(8x4)");
  EXPECT_EQ(wide.DisplayName(), "pcrack(8x4-s32)");
  EXPECT_FALSE(striped == wide);
}

// Both merge modes (foreground, and background on the path's own pool)
// through the shared kParallelCrack access path, writers in the mix,
// including the racy lazy-construction moment.
TEST(StripedLatchTest, AccessPathMixedStressBothModes) {
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{16}}) {
    constexpr std::size_t kThreads = 6;
    constexpr int kOpsPerThread = 150;
    constexpr std::int64_t kDomain = 1500;
    const auto base = RandomValues(12000, kDomain, 89);
    StrategyConfig config = StrategyConfig::ParallelCrack(8, 2);
    config.background_merge_threshold = threshold;
    const auto path = MakeAccessPath<std::int64_t>(base, config);

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(9800 + t);
        std::vector<std::int64_t> own;
        for (int i = 0; i < kOpsPerThread; ++i) {
          const auto dice = rng.NextBounded(10);
          if (dice < 2) {
            const auto v = static_cast<std::int64_t>(
                kDomain + 1 + t + kThreads * rng.NextBounded(500));
            path->Insert(v);
            own.push_back(v);
          } else if (dice < 4 && !own.empty()) {
            const std::size_t pick = rng.NextBounded(own.size());
            if (!path->Delete(own[pick])) failures.fetch_add(1);
            own[pick] = own.back();
            own.pop_back();
          } else {
            const Pred p = RandomPredicate(&rng, kDomain);
            if (path->Count(p) < ScanCount<std::int64_t>(base, p)) {
              failures.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << "threshold " << threshold;
  }
}

}  // namespace
}  // namespace aidx
