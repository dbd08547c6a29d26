// Striped write-path correctness (docs/CONCURRENCY.md §4, the write half):
//
//  - differential oracle: under every merge policy and value type, a
//    column taking the striped write path (piece-routed, value-hashed
//    write buckets under stripe latches) must produce exactly the answers
//    of a plain vector model — including Delete's hit/miss return value
//    on every single call;
//  - batch writes, row-id materialization, and stochastic cracking ride
//    the same oracle;
//  - multi-threaded writers against a single-threaded replay: the final
//    multiset must match regardless of interleaving;
//  - write accounting: striped enqueues land in AggregatedUpdateStats with
//    exact queued/cancelled/merged totals, and the stats probes run beside
//    readers and writers and are exact once the column is quiet;
//  - adaptive stripe growth: the active stripe count starts small, grows
//    only with realized cuts, and never passes the allocated capacity.
//
// Runs under ThreadSanitizer via the `concurrency` ctest label
// (scripts/check.sh --tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "exec/access_path.h"
#include "index/scan.h"
#include "parallel/partitioned_cracker_column.h"
#include "util/rng.h"

namespace aidx {
namespace {

template <typename T>
std::vector<T> RandomValues(std::size_t n, std::int64_t domain,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.NextBounded(domain));
  return v;
}

template <typename T>
RangePredicate<T> RandomPredicate(Rng* rng, std::int64_t domain) {
  const auto a = static_cast<T>(rng->NextInRange(-5, domain + 5));
  const auto width = static_cast<T>(rng->NextInRange(0, domain / 4));
  const auto kind = [&]() -> BoundKind {
    switch (rng->NextBounded(3)) {
      case 0: return BoundKind::kInclusive;
      case 1: return BoundKind::kExclusive;
      default: return BoundKind::kUnbounded;
    }
  };
  return RangePredicate<T>{a, kind(), a + width, kind()};
}

PartitionedCrackerOptions StripedWriteOptions(std::size_t partitions = 6) {
  PartitionedCrackerOptions options;
  options.num_partitions = partitions;
  return options;
}

// The core differential pin, typed over every column value type: striped
// writes vs a vector model, with every Delete's return value asserted
// equal call by call.
template <typename T>
class StripedWriteDifferentialTest : public ::testing::Test {};

using ValueTypes = ::testing::Types<std::int32_t, std::int64_t, double>;
TYPED_TEST_SUITE(StripedWriteDifferentialTest, ValueTypes);

TYPED_TEST(StripedWriteDifferentialTest, MixedWorkloadAllMergePolicies) {
  using T = TypeParam;
  for (const MergePolicy policy :
       {MergePolicy::kRipple, MergePolicy::kComplete, MergePolicy::kGradual}) {
    constexpr std::int64_t kDomain = 1500;
    auto model = RandomValues<T>(6000, kDomain, 81);
    PartitionedCrackerOptions striped_opts = StripedWriteOptions();
    striped_opts.merge_policy = policy;
    PartitionedCrackerColumn<T> striped(model, striped_opts);
    Rng rng(82);
    for (int step = 0; step < 600; ++step) {
      const auto dice = rng.NextBounded(10);
      if (dice < 3) {
        const T v = static_cast<T>(rng.NextBounded(kDomain));
        striped.Insert(v);
        model.push_back(v);
      } else if (dice < 5) {
        // Half the deletes target live values, half target values that may
        // be absent: the hit/miss decision must match on every call.
        const T v = (rng.NextBounded(2) == 0 && !model.empty())
                        ? model[rng.NextBounded(model.size())]
                        : static_cast<T>(rng.NextBounded(kDomain));
        const bool expect = [&] {
          const auto it = std::find(model.begin(), model.end(), v);
          if (it == model.end()) return false;
          *it = model.back();
          model.pop_back();
          return true;
        }();
        ASSERT_EQ(striped.Delete(v), expect)
            << MergePolicyName(policy) << " step " << step;
      } else if (dice < 8) {
        const auto p = RandomPredicate<T>(&rng, kDomain);
        const std::size_t expect = ScanCount<T>(model, p);
        ASSERT_EQ(striped.Count(p), expect)
            << MergePolicyName(policy) << " step " << step << " " << p.ToString();
      } else {
        const auto p = RandomPredicate<T>(&rng, kDomain);
        const long double expect = ScanSum<T>(model, p);
        ASSERT_DOUBLE_EQ(static_cast<double>(striped.Sum(p)),
                         static_cast<double>(expect))
            << MergePolicyName(policy) << " step " << step;
      }
    }
    EXPECT_EQ(striped.size(), model.size()) << MergePolicyName(policy);
    EXPECT_EQ(striped.Count(RangePredicate<T>::All()), model.size());
    EXPECT_TRUE(striped.ValidatePieces()) << MergePolicyName(policy);
  }
}

TEST(StripedWriteTest, MaterializeValuesMatchesModelMidPending) {
  constexpr std::int64_t kDomain = 900;
  auto model = RandomValues<std::int64_t>(4000, kDomain, 91);
  PartitionedCrackerColumn<std::int64_t> col(model, StripedWriteOptions());
  Rng rng(92);
  for (int step = 0; step < 300; ++step) {
    const auto dice = rng.NextBounded(6);
    if (dice < 2) {
      const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
      col.Insert(v);
      model.push_back(v);
    } else if (dice < 3 && !model.empty()) {
      const std::size_t pick = rng.NextBounded(model.size());
      ASSERT_TRUE(col.Delete(model[pick]));
      model[pick] = model.back();
      model.pop_back();
    } else {
      // Materialize WITHOUT flushing first: buffered writes must fold into
      // the result through the overlay, not get lost.
      const auto p = RandomPredicate<std::int64_t>(&rng, kDomain);
      std::vector<std::int64_t> got;
      col.MaterializeValues(p, &got);
      std::vector<std::int64_t> expect;
      for (const auto v : model) {
        if (p.Matches(v)) expect.push_back(v);
      }
      std::sort(got.begin(), got.end());
      std::sort(expect.begin(), expect.end());
      ASSERT_EQ(got, expect) << "step " << step << " " << p.ToString();
    }
  }
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(StripedWriteTest, RowIdsSurviveStripedBuffering) {
  PartitionedCrackerOptions options = StripedWriteOptions(4);
  options.column_options.with_row_ids = true;
  const auto base = RandomValues<std::int64_t>(2000, 500, 93);
  PartitionedCrackerColumn<std::int64_t> col(base, options);
  // Fresh inserts get ids >= base size; a query overlapping them must
  // surface those exact ids even while the tuples sit in write buckets.
  const row_id_t r1 = col.Insert(1000);
  const row_id_t r2 = col.Insert(1001);
  const row_id_t r3 = col.Insert(1002);
  EXPECT_GE(r1, base.size());
  EXPECT_NE(r1, r2);
  ASSERT_TRUE(col.Delete(1001));
  std::vector<row_id_t> rids;
  col.MaterializeRowIds(RangePredicate<std::int64_t>::AtLeast(1000), &rids);
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(rids, (std::vector<row_id_t>{r1, r3}));
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(StripedWriteTest, BatchVariantsMatchScalarLoop) {
  constexpr std::int64_t kDomain = 700;
  const auto base = RandomValues<std::int64_t>(3000, kDomain, 95);
  PartitionedCrackerColumn<std::int64_t> batched(base, StripedWriteOptions());
  PartitionedCrackerColumn<std::int64_t> scalar(base, StripedWriteOptions());
  auto model = base;
  Rng rng(96);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::int64_t> ins(40);
    for (auto& v : ins) v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
    batched.InsertBatch(ins);
    for (const auto v : ins) {
      scalar.Insert(v);
      model.push_back(v);
    }
    std::vector<std::int64_t> del;
    for (int i = 0; i < 25; ++i) {
      // Mix of present values and a sentinel absent from the domain.
      del.push_back(i % 5 == 0 ? std::int64_t{10'000}
                               : model[rng.NextBounded(model.size())]);
    }
    const std::size_t batch_hits = batched.DeleteBatch(del);
    std::size_t scalar_hits = 0;
    for (const auto v : del) {
      const bool hit = scalar.Delete(v);
      scalar_hits += hit ? 1 : 0;
      if (hit) {
        const auto it = std::find(model.begin(), model.end(), v);
        ASSERT_NE(it, model.end());
        *it = model.back();
        model.pop_back();
      }
    }
    ASSERT_EQ(batch_hits, scalar_hits) << "round " << round;
    const auto p = RandomPredicate<std::int64_t>(&rng, kDomain);
    ASSERT_EQ(batched.Count(p), ScanCount<std::int64_t>(model, p));
    ASSERT_EQ(scalar.Count(p), ScanCount<std::int64_t>(model, p));
  }
  EXPECT_EQ(batched.size(), model.size());
  EXPECT_TRUE(batched.ValidatePieces());
  EXPECT_TRUE(scalar.ValidatePieces());
}

TEST(StripedWriteTest, StochasticCrackingRidesTheSameOracle) {
  constexpr std::int64_t kDomain = 1200;
  auto model = RandomValues<std::int64_t>(5000, kDomain, 97);
  PartitionedCrackerOptions options = StripedWriteOptions();
  options.column_options.stochastic_threshold = 256;  // force stochastic cuts
  PartitionedCrackerColumn<std::int64_t> col(model, options);
  Rng rng(98);
  for (int step = 0; step < 400; ++step) {
    const auto dice = rng.NextBounded(8);
    if (dice < 2) {
      const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
      col.Insert(v);
      model.push_back(v);
    } else if (dice < 3 && !model.empty()) {
      const std::size_t pick = rng.NextBounded(model.size());
      ASSERT_TRUE(col.Delete(model[pick]));
      model[pick] = model.back();
      model.pop_back();
    } else {
      const auto p = RandomPredicate<std::int64_t>(&rng, kDomain);
      ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(model, p))
          << "step " << step << " " << p.ToString();
    }
  }
  EXPECT_TRUE(col.ValidatePieces());
}

// Multi-threaded writers + readers, then a single-threaded replay of the
// same successful operations into a model: the final multiset must match.
TEST(StripedWriteTest, ConcurrentWritersConvergeToSequentialReplay) {
  constexpr std::int64_t kDomain = 800;
  constexpr std::size_t kThreads = 8;
  constexpr int kOpsPerThread = 300;
  const auto base = RandomValues<std::int64_t>(16000, kDomain, 99);
  PartitionedCrackerColumn<std::int64_t> col(base, StripedWriteOptions(4));

  // Each thread inserts values from a private residue class and deletes
  // only its own previous inserts, so every Delete must succeed and the
  // expected final multiset is exact regardless of interleaving.
  std::array<std::vector<std::int64_t>, kThreads> surviving;
  std::atomic<int> delete_misses{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(3100 + t);
      std::vector<std::int64_t>& mine = surviving[t];
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto dice = rng.NextBounded(10);
        if (dice < 4) {
          const auto v = static_cast<std::int64_t>(
              kDomain + (rng.NextBounded(kDomain) * kThreads + t));
          col.Insert(v);
          mine.push_back(v);
        } else if (dice < 6 && !mine.empty()) {
          const std::size_t pick = rng.NextBounded(mine.size());
          if (!col.Delete(mine[pick])) delete_misses.fetch_add(1);
          mine[pick] = mine.back();
          mine.pop_back();
        } else {
          const auto p = RandomPredicate<std::int64_t>(&rng, kDomain);
          (void)col.Count(p);  // exercised concurrently; exactness below
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(delete_misses.load(), 0);

  std::vector<std::int64_t> model = base;
  for (const auto& mine : surviving) {
    model.insert(model.end(), mine.begin(), mine.end());
  }
  EXPECT_EQ(col.size(), model.size());
  EXPECT_EQ(col.Count(RangePredicate<std::int64_t>::All()), model.size());
  std::vector<std::int64_t> got;
  col.MaterializeValues(RangePredicate<std::int64_t>::All(), &got);
  std::sort(got.begin(), got.end());
  std::sort(model.begin(), model.end());
  EXPECT_EQ(got, model);
  EXPECT_TRUE(col.ValidatePieces());
}

// The write ledger the single-threaded pipeline would keep: 30 queued
// inserts; 10 deletes, each of a value with a buffered insert, so each
// cancels it; after a full-range query every surviving insert is merged.
TEST(StripedWriteTest, QueuedAndMergedCountsMatchCoarsePath) {
  const auto base = RandomValues<std::int64_t>(4000, 1000, 101);
  PartitionedCrackerColumn<std::int64_t> striped(base, StripedWriteOptions());
  for (std::int64_t v = 0; v < 30; ++v) striped.Insert(v * 13 % 1000);
  for (std::int64_t v = 0; v < 10; ++v) {
    ASSERT_TRUE(striped.Delete(v * 13 % 1000));
  }
  // Force every pending tuple through the pipeline, then check the ledger.
  ASSERT_EQ(striped.Count(RangePredicate<std::int64_t>::All()),
            base.size() + 20);
  const UpdateStats s = striped.AggregatedUpdateStats();
  EXPECT_EQ(s.inserts_queued, 30u);
  EXPECT_EQ(s.deletes_queued + s.deletes_cancelled, 10u);
  EXPECT_EQ(s.inserts_merged + s.deletes_cancelled, 30u);
  EXPECT_EQ(s.deletes_merged, s.deletes_queued);
  EXPECT_EQ(striped.pending_update_count(), 0u);
}

// The stats probes read under `structural` shared (plus `index_latch`
// shared for the piece count), so they run beside striped readers and
// writers without stalling them; TSan checks the shared reads against the
// fast path's relaxed counter bumps. Once the column is quiescent, every
// probe is exact.
TEST(StripedWriteTest, StatsProbesRunBesideReadersAndWritersAndAreExactWhenQuiet) {
  constexpr std::int64_t kDomain = 800;
  constexpr std::size_t kThreads = 3;
  constexpr int kOpsPerThread = 300;
  const auto base = RandomValues<std::int64_t>(8000, kDomain, 131);
  PartitionedCrackerColumn<std::int64_t> col(base, StripedWriteOptions(4));

  std::atomic<bool> done{false};
  std::atomic<std::size_t> inserts{0};
  std::atomic<std::size_t> deletes{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(4100 + t);
      std::vector<std::int64_t> mine;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto dice = rng.NextBounded(10);
        if (dice < 4) {
          const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain) * kThreads + t);
          col.Insert(v);
          mine.push_back(v);
          inserts.fetch_add(1);
        } else if (dice < 6 && !mine.empty()) {
          ASSERT_TRUE(col.Delete(mine.back()));
          mine.pop_back();
          deletes.fetch_add(1);
        } else {
          (void)col.Count(RandomPredicate<std::int64_t>(&rng, kDomain));
        }
      }
    });
  }
  std::thread prober([&] {
    std::size_t last_selects = 0;
    std::size_t last_queued = 0;
    while (!done.load()) {
      const CrackerStats crack = col.AggregatedStats();
      const UpdateStats updates = col.AggregatedUpdateStats();
      EXPECT_GE(crack.num_selects, last_selects);
      EXPECT_GE(updates.inserts_queued, last_queued);
      EXPECT_GE(col.aggregated_num_pieces(), col.num_partitions());
      (void)col.pending_update_count();
      last_selects = crack.num_selects;
      last_queued = updates.inserts_queued;
    }
  });
  for (auto& thread : threads) thread.join();
  done.store(true);
  prober.join();

  CrackerStats crack;
  std::size_t pieces = 0;
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    crack += col.partition(p).stats();
    pieces += col.partition(p).index().num_pieces();
  }
  const CrackerStats probed = col.AggregatedStats();
  EXPECT_EQ(probed.num_selects, crack.num_selects);
  EXPECT_EQ(probed.num_crack_in_two, crack.num_crack_in_two);
  EXPECT_EQ(probed.num_crack_in_three, crack.num_crack_in_three);
  EXPECT_EQ(probed.values_touched, crack.values_touched);
  EXPECT_EQ(col.aggregated_num_pieces(), pieces);
  EXPECT_EQ(col.AggregatedUpdateStats().inserts_queued, inserts.load());
  ASSERT_EQ(col.Count(RangePredicate<std::int64_t>::All()),
            base.size() + inserts.load() - deletes.load());
  EXPECT_EQ(col.pending_update_count(), 0u);
  // Quiet writes are counted one for one.
  for (std::int64_t v = 0; v < 5; ++v) col.Insert(v);
  EXPECT_EQ(col.pending_update_count(), 5u);
  EXPECT_EQ(col.AggregatedUpdateStats().inserts_queued, inserts.load() + 5);
}

TEST(StripedWriteTest, InsertThenDeleteCancelsInsideTheBucket) {
  const auto base = RandomValues<std::int64_t>(1000, 300, 103);
  PartitionedCrackerColumn<std::int64_t> col(base, StripedWriteOptions());
  const std::size_t before = col.size();
  col.Insert(9999);  // outside the base domain: uniquely identifiable
  ASSERT_TRUE(col.Delete(9999));
  EXPECT_EQ(col.size(), before);
  const UpdateStats stats = col.AggregatedUpdateStats();
  EXPECT_EQ(stats.deletes_cancelled, 1u);
  EXPECT_EQ(stats.deletes_queued, 0u);
  EXPECT_EQ(col.Count(RangePredicate<std::int64_t>::AtLeast(9999)), 0u);
  EXPECT_FALSE(col.Delete(9999));  // nothing left to claim
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(StripedWriteTest, DeleteClaimsAreExactAcrossDuplicates) {
  // Three live copies of one value spread across base + buffer: exactly
  // three deletes may succeed, the fourth must miss.
  std::vector<std::int64_t> base(500);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<std::int64_t>(i);
  }
  base.push_back(42);  // second copy of 42 in the base
  PartitionedCrackerColumn<std::int64_t> col(base, StripedWriteOptions(2));
  col.Insert(42);  // third copy, buffered
  EXPECT_TRUE(col.Delete(42));
  EXPECT_TRUE(col.Delete(42));
  EXPECT_TRUE(col.Delete(42));
  EXPECT_FALSE(col.Delete(42));
  EXPECT_EQ(col.Count(RangePredicate<std::int64_t>::Between(42, 42)), 0u);
  EXPECT_EQ(col.size(), base.size() - 2);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(StripedWriteTest, AdaptiveStripesGrowWithRealizedCuts) {
  const auto base = RandomValues<std::int64_t>(40000, 10000, 107);
  PartitionedCrackerOptions options = StripedWriteOptions(2);
  options.latch_stripes = 64;
  PartitionedCrackerColumn<std::int64_t> col(base, options);
  ASSERT_EQ(col.latch_stripes(), 64u);  // capacity is allocated up front
  EXPECT_LE(col.active_stripes(0), 4u);  // but activation starts small
  Rng rng(108);
  for (int q = 0; q < 400; ++q) {
    const auto p = RandomPredicate<std::int64_t>(&rng, 10000);
    (void)col.Count(p);
  }
  col.FlushPending();  // a coarse hold runs the growth check
  std::size_t grown = 0;
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    EXPECT_LE(col.active_stripes(p), 64u);
    grown = std::max(grown, col.active_stripes(p));
  }
  EXPECT_GT(grown, 4u) << "hundreds of cracks must grow the active table";
}

TEST(StripedWriteTest, DisplayNamesExposeWriteKnobs) {
  StrategyConfig config = StrategyConfig::ParallelCrack(8, 4);
  EXPECT_EQ(config.DisplayName(), "pcrack(8x4)");  // defaults stay terse
  config.background_merge_threshold = 64;
  EXPECT_EQ(config.DisplayName(), "pcrack(8x4-bg64)");
  // Knob variants must be distinct configs (the Database caches on this).
  EXPECT_FALSE(config == StrategyConfig::ParallelCrack(8, 4));
}

TEST(StripedWriteTest, AccessPathStripedWritesMatchOracle) {
  constexpr std::int64_t kDomain = 500;
  auto base = RandomValues<std::int64_t>(4000, kDomain, 109);
  StrategyConfig config = StrategyConfig::ParallelCrack(4, 2);
  const auto path = MakeAccessPath<std::int64_t>(base, config);
  auto model = base;
  Rng rng(110);
  for (int step = 0; step < 250; ++step) {
    const auto dice = rng.NextBounded(6);
    if (dice < 2) {
      const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
      path->Insert(v);
      model.push_back(v);
    } else if (dice < 3 && !model.empty()) {
      const std::size_t pick = rng.NextBounded(model.size());
      ASSERT_TRUE(path->Delete(model[pick]));
      model[pick] = model.back();
      model.pop_back();
    } else {
      const auto p = RandomPredicate<std::int64_t>(&rng, kDomain);
      ASSERT_EQ(path->Count(p), ScanCount<std::int64_t>(model, p));
    }
  }
  EXPECT_EQ(path->Count(RangePredicate<std::int64_t>::All()), model.size());
}

}  // namespace
}  // namespace aidx
