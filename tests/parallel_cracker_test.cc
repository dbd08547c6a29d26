// PartitionedCrackerColumn correctness: result equivalence against the
// single-threaded CrackerColumn oracle under random workloads, partition
// boundary edge cases (predicates spanning all/one/zero partitions and
// landing exactly on splitters), and a concurrent-select stress test
// (N threads x M queries, every count checked against a scan oracle).
// The stress tests are the payload of the ThreadSanitizer CI job.
#include "parallel/partitioned_cracker_column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "exec/access_path.h"
#include "index/scan.h"
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

TEST(PartitionedCrackerTest, CountMatchesCrackerColumnOnRandomWorkload) {
  const auto base = RandomValues(20000, 4000, 42);
  Column parallel(base, {.num_partitions = 8});
  CrackerColumn<std::int64_t> single(base);
  Rng rng(99);
  for (int q = 0; q < 300; ++q) {
    const Pred p = RandomPredicate(&rng, 4000);
    ASSERT_EQ(parallel.Count(p), single.Count(p)) << p.ToString();
  }
  EXPECT_TRUE(parallel.ValidatePieces());
  EXPECT_TRUE(single.ValidatePieces());
}

TEST(PartitionedCrackerTest, SumMatchesCrackerColumnOnRandomWorkload) {
  const auto base = RandomValues(10000, 2000, 7);
  Column parallel(base, {.num_partitions = 5});
  CrackerColumn<std::int64_t> single(base);
  Rng rng(8);
  for (int q = 0; q < 150; ++q) {
    const Pred p = RandomPredicate(&rng, 2000);
    // Values are integers small enough that long double sums are exact.
    ASSERT_EQ(parallel.Sum(p), single.Sum(p)) << p.ToString();
  }
}

TEST(PartitionedCrackerTest, MaterializedValuesMatchScanMultiset) {
  const auto base = RandomValues(5000, 300, 13);
  Column col(base, {.num_partitions = 4});
  Rng rng(14);
  for (int q = 0; q < 40; ++q) {
    const Pred p = RandomPredicate(&rng, 300);
    std::vector<std::int64_t> got;
    col.MaterializeValues(p, &got);
    std::vector<std::int64_t> expect;
    ScanValues<std::int64_t>(base, p, &expect);
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(got, expect) << p.ToString();
  }
}

TEST(PartitionedCrackerTest, RowIdsAreGlobalBaseOffsets) {
  const auto base = RandomValues(3000, 200, 17);
  PartitionedCrackerOptions options{.num_partitions = 6};
  options.column_options.with_row_ids = true;
  Column col(base, options);
  const Pred p = Pred::Between(50, 120);
  std::vector<row_id_t> got;
  col.MaterializeRowIds(p, &got);
  std::vector<row_id_t> expect;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (p.Matches(base[i])) expect.push_back(static_cast<row_id_t>(i));
  }
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
}

TEST(PartitionedCrackerTest, PredicateSpanningAllPartitions) {
  const auto base = RandomValues(4000, 1000, 3);
  Column col(base, {.num_partitions = 8});
  EXPECT_EQ(col.Count(Pred::All()), base.size());
  const auto sel = col.Select(Pred::All());
  EXPECT_EQ(sel.partitions.size(), col.num_partitions());
}

TEST(PartitionedCrackerTest, PredicateInsideOnePartition) {
  // Known data 0..999 with K=4: a narrow range lands in one partition.
  std::vector<std::int64_t> base(1000);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<std::int64_t>((i * 7919) % 1000);  // shuffled 0..999
  }
  Column col(base, {.num_partitions = 4});
  ASSERT_EQ(col.num_partitions(), 4u);
  const auto splitters = col.splitters();
  // A range strictly between the first two splitters touches one partition.
  const std::int64_t lo = splitters[0] + 1;
  const std::int64_t hi = splitters[1] - 1;
  ASSERT_LT(lo, hi);
  const auto sel = col.Select(Pred::HalfOpen(lo, hi));
  EXPECT_EQ(sel.partitions.size(), 1u);
  EXPECT_EQ(col.Count(Pred::HalfOpen(lo, hi)),
            ScanCount<std::int64_t>(base, Pred::HalfOpen(lo, hi)));
}

TEST(PartitionedCrackerTest, PredicateMatchingNothing) {
  const auto base = RandomValues(2000, 500, 21);
  Column col(base, {.num_partitions = 4});
  EXPECT_EQ(col.Count(Pred::Between(1000, 2000)), 0u);   // above the domain
  EXPECT_EQ(col.Count(Pred::Between(-50, -1)), 0u);      // below the domain
  EXPECT_EQ(col.Count(Pred::HalfOpen(100, 100)), 0u);    // syntactically empty
  const auto sel = col.Select(Pred::HalfOpen(100, 100));
  EXPECT_TRUE(sel.partitions.empty());
}

TEST(PartitionedCrackerTest, BoundsExactlyOnSplitters) {
  const auto base = RandomValues(6000, 600, 23);
  Column col(base, {.num_partitions = 6});
  for (const std::int64_t s : col.splitters()) {
    for (const Pred& p :
         {Pred::Between(s, s), Pred::HalfOpen(s, s + 10), Pred::LessThan(s),
          Pred::AtMost(s), Pred::GreaterThan(s), Pred::AtLeast(s)}) {
      ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(base, p)) << p.ToString();
    }
  }
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(PartitionedCrackerTest, SinglePartitionBehavesLikeCrackerColumn) {
  const auto base = RandomValues(3000, 700, 29);
  Column parallel(base, {.num_partitions = 1});
  CrackerColumn<std::int64_t> single(base);
  EXPECT_EQ(parallel.num_partitions(), 1u);
  Rng rng(30);
  for (int q = 0; q < 100; ++q) {
    const Pred p = RandomPredicate(&rng, 700);
    ASSERT_EQ(parallel.Count(p), single.Count(p)) << p.ToString();
  }
  // Identical cracks, too: one partition means the same piece structure.
  EXPECT_EQ(parallel.AggregatedStats().num_crack_in_two,
            single.stats().num_crack_in_two);
}

TEST(PartitionedCrackerTest, MorePartitionsThanDistinctValues) {
  const auto base = RandomValues(500, 5, 31);  // 5 distinct values, K=64
  Column col(base, {.num_partitions = 64});
  EXPECT_LE(col.num_partitions(), 5u);
  for (std::int64_t v = -1; v <= 5; ++v) {
    const Pred p = Pred::Between(v, v);
    ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(base, p)) << p.ToString();
  }
}

TEST(PartitionedCrackerTest, AllDuplicates) {
  const std::vector<std::int64_t> base(1000, 77);
  Column col(base, {.num_partitions = 8});
  EXPECT_EQ(col.num_partitions(), 1u);  // one distinct value, no splitters
  EXPECT_EQ(col.Count(Pred::Between(77, 77)), 1000u);
  EXPECT_EQ(col.Count(Pred::LessThan(77)), 0u);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(PartitionedCrackerTest, EmptyColumn) {
  Column col(std::span<const std::int64_t>{}, {.num_partitions = 4});
  EXPECT_EQ(col.size(), 0u);
  EXPECT_EQ(col.Count(Pred::Between(1, 10)), 0u);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(PartitionedCrackerTest, StatsAggregateAcrossPartitions) {
  const auto base = RandomValues(8000, 1000, 37);
  // Queries driven through Select(): all work flows through the inner
  // columns, so the aggregate must equal the per-partition sum exactly.
  Column col(base, {.num_partitions = 4});
  Rng rng(38);
  for (int q = 0; q < 50; ++q) (void)col.Select(RandomPredicate(&rng, 1000));
  const CrackerStats stats = col.AggregatedStats();
  EXPECT_GT(stats.num_selects, 0u);
  EXPECT_GT(stats.num_crack_in_two + stats.num_crack_in_three, 0u);
  std::size_t per_partition_selects = 0;
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    per_partition_selects += col.partition(p).stats().num_selects;
  }
  EXPECT_EQ(stats.num_selects, per_partition_selects);
}

TEST(PartitionedCrackerTest, StatsAggregateIncludeStripedFastPath) {
  const auto base = RandomValues(8000, 1000, 37);
  // The striped fast path counts its selects in shard-level counters; the
  // aggregate must still see every query exactly once.
  Column col(base, {.num_partitions = 4});
  Rng rng(38);
  std::size_t shard_queries = 0;
  for (int q = 0; q < 50; ++q) {
    const Pred p = RandomPredicate(&rng, 1000);
    if (p.DefinitelyEmpty()) continue;
    col.Count(p);
    const auto sel = col.Select(p);  // single-threaded: safe, counts too
    shard_queries += 2 * sel.partitions.size();
  }
  const CrackerStats stats = col.AggregatedStats();
  EXPECT_EQ(stats.num_selects, shard_queries);
  EXPECT_GT(stats.num_crack_in_two + stats.num_crack_in_three, 0u);
}

TEST(PartitionedCrackerTest, IntraQueryPoolGivesSameAnswers) {
  const auto base = RandomValues(20000, 3000, 41);
  ThreadPool pool(3);
  Column with_pool(base, {.num_partitions = 8}, &pool);
  Column without_pool(base, {.num_partitions = 8});
  Rng rng(43);
  for (int q = 0; q < 200; ++q) {
    const Pred p = RandomPredicate(&rng, 3000);
    ASSERT_EQ(with_pool.Count(p), without_pool.Count(p)) << p.ToString();
  }
  EXPECT_TRUE(with_pool.ValidatePieces());
}

// The headline concurrency test: N threads x M queries against one shared
// column, every per-query count verified against the immutable base via a
// scan oracle. Runs under TSan in CI (scripts/check.sh --tsan).
TEST(PartitionedCrackerTest, ConcurrentSelectStress) {
  constexpr std::size_t kThreads = 8;
  constexpr int kQueriesPerThread = 150;
  constexpr std::int64_t kDomain = 2000;
  const auto base = RandomValues(30000, kDomain, 47);
  Column col(base, {.num_partitions = 8});

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const Pred p = RandomPredicate(&rng, kDomain);
        const std::size_t got = col.Count(p);
        const std::size_t expect = ScanCount<std::int64_t>(base, p);
        if (got != expect) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(col.ValidatePieces());
}

// Same stress through the AccessPath layer: concurrent Count on a shared
// kParallelCrack path, including the racy lazy-construction moment. The
// intra-query pool (num_threads = 2) and the client threads compose.
TEST(PartitionedCrackerTest, ConcurrentAccessPathStress) {
  constexpr std::size_t kThreads = 6;
  constexpr int kQueriesPerThread = 100;
  constexpr std::int64_t kDomain = 1500;
  const auto base = RandomValues(20000, kDomain, 53);
  const auto path =
      MakeAccessPath<std::int64_t>(base, StrategyConfig::ParallelCrack(8, 2));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(2000 + t);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const Pred p = RandomPredicate(&rng, kDomain);
        if (path->Count(p) != ScanCount<std::int64_t>(base, p)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PartitionedCrackerTest, ParallelCrackPathMatchesCrackPath) {
  const auto base = RandomValues(10000, 2500, 59);
  const auto parallel =
      MakeAccessPath<std::int64_t>(base, StrategyConfig::ParallelCrack(4, 1));
  const auto crack = MakeAccessPath<std::int64_t>(base, StrategyConfig::Crack());
  Rng rng(60);
  for (int q = 0; q < 100; ++q) {
    const Pred p = RandomPredicate(&rng, 2500);
    ASSERT_EQ(parallel->Count(p), crack->Count(p)) << p.ToString();
  }
  EXPECT_EQ(parallel->name(), "pcrack(4x1)");
}

// Single-threaded write semantics through the partitioned column: inserts
// and deletes route to the splitter-owning partition and the aggregate
// answers match a mutated-vector oracle.
TEST(PartitionedCrackerTest, UpdatesMatchOracleSingleThreaded) {
  constexpr std::int64_t kDomain = 2000;
  auto model = RandomValues(8000, kDomain, 61);
  Column col(model, {.num_partitions = 6});
  Rng rng(62);
  for (int step = 0; step < 600; ++step) {
    const auto dice = rng.NextBounded(10);
    if (dice < 3) {
      const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
      col.Insert(v);
      model.push_back(v);
    } else if (dice < 5 && !model.empty()) {
      const std::size_t pick = rng.NextBounded(model.size());
      const std::int64_t v = model[pick];
      ASSERT_TRUE(col.Delete(v)) << "step " << step;
      model[pick] = model.back();
      model.pop_back();
    } else {
      const Pred p = RandomPredicate(&rng, kDomain);
      ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(model, p))
          << "step " << step << " " << p.ToString();
    }
  }
  EXPECT_FALSE(col.Delete(kDomain + 7));  // absent value
  EXPECT_EQ(col.size(), model.size());
  EXPECT_TRUE(col.ValidatePieces());
}

// Batch writes group by owning partition (one latch per partition per
// batch) and must be observationally identical to the equivalent scalar
// loops — same counts, same live size, same multiset.
TEST(PartitionedCrackerTest, BatchWritesMatchScalarLoops) {
  constexpr std::int64_t kDomain = 3000;
  auto model = RandomValues(10000, kDomain, 63);
  Column col(model, {.num_partitions = 6, .column_options = {.with_row_ids = true}});
  Rng rng(64);
  for (int round = 0; round < 8; ++round) {
    // Insert a batch spanning many partitions (with duplicates).
    std::vector<std::int64_t> batch(300);
    for (auto& v : batch) v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
    col.InsertBatch(batch);
    model.insert(model.end(), batch.begin(), batch.end());
    ASSERT_EQ(col.size(), model.size());

    // Delete a batch: mostly live values, some absent, some duplicated
    // within the batch.
    std::vector<std::int64_t> victims;
    std::size_t expect_deleted = 0;
    std::vector<std::int64_t> scratch = model;
    for (int i = 0; i < 150; ++i) {
      std::int64_t v;
      if (rng.NextBounded(5) == 0) {
        v = kDomain + static_cast<std::int64_t>(rng.NextBounded(100));  // absent
      } else {
        v = model[rng.NextBounded(model.size())];
      }
      victims.push_back(v);
      const auto it = std::find(scratch.begin(), scratch.end(), v);
      if (it != scratch.end()) {
        *it = scratch.back();
        scratch.pop_back();
        ++expect_deleted;
      }
    }
    ASSERT_EQ(col.DeleteBatch(victims), expect_deleted) << "round " << round;
    model = std::move(scratch);
    ASSERT_EQ(col.size(), model.size());

    const Pred p = RandomPredicate(&rng, kDomain);
    ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(model, p)) << "round " << round;
  }
  EXPECT_TRUE(col.ValidatePieces());
}

// Concurrent batch writers: two threads InsertBatch/DeleteBatch their own
// disjoint value spaces while readers count. Balances totals afterwards;
// the latch protocol (one partition latch at a time, ascending) must hold
// under TSan.
TEST(PartitionedCrackerTest, ConcurrentBatchWriterStress) {
  constexpr std::int64_t kDomain = 4000;
  const auto base = RandomValues(20000, kDomain, 65);
  Column col(base, {.num_partitions = 8});
  constexpr int kWriters = 2;
  constexpr int kRounds = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(700 + t);
      for (int round = 0; round < kRounds; ++round) {
        // Fresh values disjoint from the base domain and from other threads.
        std::vector<std::int64_t> batch(64);
        for (auto& v : batch) {
          v = kDomain + 1 + t + kWriters * static_cast<std::int64_t>(
                                    rng.NextBounded(1000));
        }
        col.InsertBatch(batch);
        if (col.DeleteBatch(batch) != batch.size()) failures.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(900);
    for (int q = 0; q < 200; ++q) {
      const Pred p = RandomPredicate(&rng, kDomain);
      if (col.Count(p) < ScanCount<std::int64_t>(base, p)) failures.fetch_add(1);
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(col.size(), base.size());
  EXPECT_TRUE(col.ValidatePieces());
}

// Concurrent writers and readers on one shared column: writer threads
// insert disjoint fresh values and delete some of their own inserts,
// reader threads issue range counts throughout. The readers cannot check
// exact counts mid-flight (writes race them by design); afterwards the
// total must balance and every invariant must hold. Run under TSan by
// scripts/check.sh --tsan / CI.
TEST(PartitionedCrackerTest, ConcurrentWriterStress) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kReaders = 4;
  constexpr int kOpsPerWriter = 400;
  constexpr std::int64_t kDomain = 2000;
  const auto base = RandomValues(20000, kDomain, 63);
  Column col(base, {.num_partitions = 8});

  std::atomic<std::size_t> inserted{0};
  std::atomic<std::size_t> deleted{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (std::size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(3000 + t);
      std::vector<std::int64_t> own;  // this thread's not-yet-deleted inserts
      for (int i = 0; i < kOpsPerWriter; ++i) {
        if (own.empty() || rng.NextBounded(3) != 0) {
          // Values above the base domain, so only their inserter deletes
          // them and every delete must succeed.
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
      Rng rng(4000 + t);
      for (int q = 0; q < kOpsPerWriter; ++q) {
        const Pred p = RandomPredicate(&rng, kDomain);
        // Base values are never deleted, so the count is at least the
        // base's and at most base + all concurrent inserts.
        const std::size_t got = col.Count(p);
        if (got < ScanCount<std::int64_t>(base, p)) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(col.size(), base.size() + inserted.load() - deleted.load());
  EXPECT_EQ(col.Count(Pred::All()), col.size());
  EXPECT_TRUE(col.ValidatePieces());
  const UpdateStats stats = col.AggregatedUpdateStats();
  EXPECT_EQ(stats.inserts_queued, inserted.load());
}

// Same through the shared kParallelCrack access path, including the racy
// lazy-construction moment with writers in the mix.
TEST(PartitionedCrackerTest, ConcurrentMixedAccessPathStress) {
  constexpr std::size_t kThreads = 6;
  constexpr int kOpsPerThread = 200;
  constexpr std::int64_t kDomain = 1500;
  const auto base = RandomValues(15000, kDomain, 67);
  const auto path =
      MakeAccessPath<std::int64_t>(base, StrategyConfig::ParallelCrack(8, 2));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(5000 + t);
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
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace aidx
