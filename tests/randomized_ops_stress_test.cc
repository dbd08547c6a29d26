// Property/fuzz harness for the striped write path (docs/CONCURRENCY.md
// §5): seeded random operation streams against a std::multiset oracle.
//
//  - single-threaded: after EVERY operation the column must agree with the
//    multiset on Count/Sum over random ranges and on Delete hit/miss;
//  - multi-threaded: 8 threads interleave inserts, deletes, and range
//    queries freely; per-thread value namespaces make the final multiset
//    deterministic, so after joining, a full materialization must equal
//    the union of the per-thread logs — for any interleaving the scheduler
//    produced;
//  - the same interleavings run again with background merges enabled, so
//    the mode machine's Normal -> PrepareToMerge -> Merging -> Merged
//    cycle races real traffic under TSan;
//  - multi-column arm: row-atomic DML on a 3-column Database against a
//    row-store oracle, across strategies and merge policies, sequentially
//    and with 8 threads interleaving through the documented external
//    serialization (the parallel-crack paths still fan out internally,
//    so TSan sees real intra-query concurrency under DML).
//
// Each property is TEST_P over several seeds; a failure message carries
// the seed, so any counterexample replays deterministically.
//
// Runs under ThreadSanitizer via the `concurrency` ctest label
// (scripts/check.sh --tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "index/scan.h"
#include "parallel/partitioned_cracker_column.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;
using Column = PartitionedCrackerColumn<std::int64_t>;

constexpr std::int64_t kDomain = 1000;

std::vector<std::int64_t> RandomValues(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(kDomain));
  return v;
}

Pred RandomPredicate(Rng* rng) {
  const auto a = rng->NextInRange(-5, kDomain + 5);
  const auto width = rng->NextInRange(0, kDomain / 4);
  const auto kind = [&]() -> BoundKind {
    switch (rng->NextBounded(3)) {
      case 0: return BoundKind::kInclusive;
      case 1: return BoundKind::kExclusive;
      default: return BoundKind::kUnbounded;
    }
  };
  return Pred{a, kind(), a + width, kind()};
}

PartitionedCrackerOptions StressOptions(std::size_t background_threshold = 0) {
  PartitionedCrackerOptions options;
  options.num_partitions = 4;
  options.background_merge_threshold = background_threshold;
  options.background_merge_chunk = 64;  // small chunks: more mode cycles
  return options;
}

class RandomizedOpsStress : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedOpsStress,
                         ::testing::Values(0xA11CEull, 0xB0Bull, 0xC0FFEEull,
                                           0xD15EA5Eull));

// Sequential property: the column is observationally a std::multiset.
TEST_P(RandomizedOpsStress, SequentialMultisetOracle) {
  const std::uint64_t seed = GetParam();
  const auto base = RandomValues(3000, seed);
  std::multiset<std::int64_t> oracle(base.begin(), base.end());
  Column col(base, StressOptions());
  Rng rng(seed ^ 0x5EED);
  for (int op = 0; op < 1000; ++op) {
    switch (rng.NextBounded(5)) {
      case 0: {
        const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        col.Insert(v);
        oracle.insert(v);
        break;
      }
      case 1: {
        const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        const auto it = oracle.find(v);
        const bool expect = it != oracle.end();
        ASSERT_EQ(col.Delete(v), expect)
            << "seed " << seed << " op " << op << " value " << v;
        if (expect) oracle.erase(it);
        break;
      }
      case 2: {
        const Pred p = RandomPredicate(&rng);
        std::size_t expect = 0;
        for (const auto v : oracle) expect += p.Matches(v) ? 1 : 0;
        ASSERT_EQ(col.Count(p), expect)
            << "seed " << seed << " op " << op << " " << p.ToString();
        break;
      }
      case 3: {
        const Pred p = RandomPredicate(&rng);
        long double expect = 0;
        for (const auto v : oracle) {
          if (p.Matches(v)) expect += static_cast<long double>(v);
        }
        ASSERT_EQ(static_cast<double>(col.Sum(p)),
                  static_cast<double>(expect))
            << "seed " << seed << " op " << op << " " << p.ToString();
        break;
      }
      default: {
        ASSERT_EQ(col.size(), oracle.size()) << "seed " << seed;
        break;
      }
    }
  }
  EXPECT_EQ(col.Count(Pred::All()), oracle.size()) << "seed " << seed;
  EXPECT_TRUE(col.ValidatePieces()) << "seed " << seed;
}

// One multi-threaded round: `threads` workers run `ops` operations each
// against `col`; returns the expected final multiset. Thread t inserts
// only values ≡ t (mod threads) above the base domain and deletes only
// its own inserts, so the union of survivor logs is exact for any
// interleaving while deletes still contend on shared pieces.
std::vector<std::int64_t> RunInterleavedOps(Column* col,
                                            std::vector<std::int64_t> base,
                                            std::uint64_t seed,
                                            std::size_t threads, int ops) {
  std::vector<std::vector<std::int64_t>> surviving(threads);
  std::atomic<int> delete_misses{0};
  std::atomic<int> oracle_failures{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(seed + 17 * t);
      std::vector<std::int64_t>& mine = surviving[t];
      for (int op = 0; op < ops; ++op) {
        const auto dice = rng.NextBounded(10);
        if (dice < 4) {
          const auto v = static_cast<std::int64_t>(
              kDomain + rng.NextBounded(kDomain) * threads + t);
          col->Insert(v);
          mine.push_back(v);
        } else if (dice < 6 && !mine.empty()) {
          const std::size_t pick = rng.NextBounded(mine.size());
          if (!col->Delete(mine[pick])) delete_misses.fetch_add(1);
          mine[pick] = mine.back();
          mine.pop_back();
        } else if (dice < 9) {
          // The base never changes, so base-domain counts have a fixed
          // floor and ceiling even while other threads write above it.
          const Pred p = RandomPredicate(&rng);
          const std::size_t expect =
              ScanCount<std::int64_t>(std::span<const std::int64_t>(base), p);
          if (col->Count(p) < expect) oracle_failures.fetch_add(1);
        } else {
          std::vector<std::int64_t> out;
          col->MaterializeValues(Pred::Between(0, kDomain - 1), &out);
          if (out.size() != base.size()) oracle_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(delete_misses.load(), 0) << "seed " << seed;
  EXPECT_EQ(oracle_failures.load(), 0) << "seed " << seed;
  std::vector<std::int64_t> expect = std::move(base);
  for (const auto& mine : surviving) {
    expect.insert(expect.end(), mine.begin(), mine.end());
  }
  std::sort(expect.begin(), expect.end());
  return expect;
}

TEST_P(RandomizedOpsStress, InterleavedOpsConvergeToLogUnion) {
  const std::uint64_t seed = GetParam();
  const auto base = RandomValues(8000, seed ^ 0xF00D);
  Column col(base, StressOptions());
  const auto expect = RunInterleavedOps(&col, base, seed, 8, 250);
  std::vector<std::int64_t> got;
  col.MaterializeValues(Pred::All(), &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect) << "seed " << seed;
  EXPECT_EQ(col.size(), expect.size()) << "seed " << seed;
  EXPECT_TRUE(col.ValidatePieces()) << "seed " << seed;
}

TEST_P(RandomizedOpsStress, InterleavedOpsWithBackgroundMerges) {
  const std::uint64_t seed = GetParam();
  const auto base = RandomValues(8000, seed ^ 0xFEED);
  ThreadPool pool(3);
  // A low threshold keeps merge tasks cycling through the mode machine
  // for the whole run, racing the writers and readers below.
  Column col(base, StressOptions(/*background_threshold=*/16), &pool);
  const auto expect = RunInterleavedOps(&col, base, seed, 8, 250);
  col.WaitForBackgroundMerges();
  std::vector<std::int64_t> got;
  col.MaterializeValues(Pred::All(), &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect) << "seed " << seed;
  EXPECT_TRUE(col.ValidatePieces()) << "seed " << seed;
}

// ---------------------------------------------------------------------------
// Multi-column row-atomic DML (docs/UPDATES.md §5).
// ---------------------------------------------------------------------------

using Row = std::array<std::int64_t, 3>;  // columns a, b, c
const char* const kDmlColumns[] = {"a", "b", "c"};

StrategyConfig WithPolicy(StrategyConfig config, MergePolicy policy) {
  config.merge_policy = policy;
  return config;
}

// The strategy mix every multi-column property cycles through: the three
// merge policies under plain cracking, plus the latched parallel path.
const StrategyConfig kDmlConfigs[] = {
    WithPolicy(StrategyConfig::Crack(), MergePolicy::kComplete),
    WithPolicy(StrategyConfig::Crack(), MergePolicy::kGradual),
    WithPolicy(StrategyConfig::Crack(), MergePolicy::kRipple),
    StrategyConfig::ParallelCrack(4, 2),
};

void BuildDmlTable(Database* db, const std::vector<Row>& rows) {
  ASSERT_TRUE(db->CreateTable("t").ok());
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<std::int64_t> values(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) values[i] = rows[i][c];
    ASSERT_TRUE(db->AddColumn("t", kDmlColumns[c], std::move(values)).ok());
  }
}

// Sequential property: a 3-column Database under interleaved row inserts,
// first-match deletes, and range counts is observationally the row oracle,
// whichever strategy (and merge policy) answers each query.
TEST_P(RandomizedOpsStress, MultiColumnRowOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xD31);
  std::vector<Row> oracle(2000);
  for (auto& row : oracle) {
    for (auto& v : row) v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
  }
  Database db;
  BuildDmlTable(&db, oracle);
  for (int op = 0; op < 400; ++op) {
    switch (rng.NextBounded(4)) {
      case 0: {
        Row row;
        for (auto& v : row) {
          v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        }
        ASSERT_TRUE(db.Insert("t", {row[0], row[1], row[2]}).ok())
            << "seed " << seed << " op " << op;
        oracle.push_back(row);
        break;
      }
      case 1: {
        const std::size_t col = rng.NextBounded(3);
        const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        const auto it =
            std::find_if(oracle.begin(), oracle.end(),
                         [&](const Row& row) { return row[col] == v; });
        auto deleted = db.Delete("t", kDmlColumns[col], v);
        ASSERT_TRUE(deleted.ok()) << "seed " << seed << " op " << op;
        ASSERT_EQ(*deleted, it != oracle.end())
            << "seed " << seed << " op " << op;
        if (it != oracle.end()) oracle.erase(it);
        break;
      }
      default: {
        const std::size_t col = rng.NextBounded(3);
        const Pred p = RandomPredicate(&rng);
        const StrategyConfig& config =
            kDmlConfigs[rng.NextBounded(std::size(kDmlConfigs))];
        std::size_t expect = 0;
        for (const auto& row : oracle) expect += p.Matches(row[col]) ? 1 : 0;
        auto count = db.Count({.table = "t",
                               .column = kDmlColumns[col],
                               .predicate = p,
                               .strategy = config});
        ASSERT_TRUE(count.ok()) << "seed " << seed << " op " << op;
        ASSERT_EQ(*count, expect)
            << "seed " << seed << " op " << op << " " << config.DisplayName()
            << " col " << kDmlColumns[col] << " " << p.ToString();
        break;
      }
    }
  }
}

// Threaded arm: 8 threads interleave row-atomic DML and range queries on a
// shared Database through the documented external serialization (the
// facade is not thread-safe; docs/CONCURRENCY.md). Parallel-crack queries
// still fan out worker threads inside each serialized call, so TSan races
// the intra-query concurrency against a mutating table. Thread t inserts
// only keys ≡ t (mod threads) above the base domain and deletes only its
// own keys, so the final table equals the union of survivor logs for any
// interleaving.
TEST_P(RandomizedOpsStress, MultiColumnMutexSerializedInterleavings) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xD32);
  std::vector<Row> base(2000);
  for (auto& row : base) {
    for (auto& v : row) v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
  }
  Database db;
  BuildDmlTable(&db, base);
  std::mutex db_mutex;
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<Row>> surviving(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng thread_rng(seed + 31 * t);
      std::vector<Row>& mine = surviving[t];
      std::int64_t next_key = 0;  // unique per thread: first-match deletes
                                  // by key remove exactly the logged row
      for (int op = 0; op < 120; ++op) {
        const auto dice = thread_rng.NextBounded(10);
        if (dice < 4) {
          const auto key = static_cast<std::int64_t>(
              kDomain + (next_key++) * static_cast<std::int64_t>(kThreads) +
              static_cast<std::int64_t>(t));
          const Row row = {key,
                           static_cast<std::int64_t>(
                               thread_rng.NextBounded(kDomain)),
                           static_cast<std::int64_t>(
                               thread_rng.NextBounded(kDomain))};
          std::lock_guard<std::mutex> lock(db_mutex);
          if (!db.Insert("t", {row[0], row[1], row[2]}).ok()) {
            failures.fetch_add(1);
          } else {
            mine.push_back(row);
          }
        } else if (dice < 6 && !mine.empty()) {
          const std::size_t pick = thread_rng.NextBounded(mine.size());
          const auto key = mine[pick][0];
          std::lock_guard<std::mutex> lock(db_mutex);
          auto deleted = db.Delete("t", "a", key);
          if (!deleted.ok() || !*deleted) failures.fetch_add(1);
          mine[pick] = mine.back();
          mine.pop_back();
        } else {
          // Base-domain counts have a fixed floor: the base rows never
          // change while other threads write above the domain.
          const std::size_t col = thread_rng.NextBounded(3);
          const Pred p = RandomPredicate(&thread_rng);
          std::size_t floor = 0;
          for (const auto& row : base) floor += p.Matches(row[col]) ? 1 : 0;
          const StrategyConfig& config =
              kDmlConfigs[thread_rng.NextBounded(std::size(kDmlConfigs))];
          std::lock_guard<std::mutex> lock(db_mutex);
          auto count = db.Count({.table = "t",
                                 .column = kDmlColumns[col],
                                 .predicate = p,
                                 .strategy = config});
          if (!count.ok() || *count < floor) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  ASSERT_EQ(failures.load(), 0) << "seed " << seed;
  // Union-of-logs oracle: the final table is the base plus every survivor.
  std::vector<Row> expect = base;
  for (const auto& mine : surviving) {
    expect.insert(expect.end(), mine.begin(), mine.end());
  }
  std::sort(expect.begin(), expect.end());
  // Materialize all three columns row-aligned through sideways maps.
  auto r = db.SelectProject({.table = "t",
                             .column = "a",
                             .predicate = Pred::All(),
                             .tails = {"b", "c"}});
  ASSERT_TRUE(r.ok()) << "seed " << seed;
  ASSERT_EQ(r->num_rows, expect.size()) << "seed " << seed;
  // SelectProject does not return the head column; check it via Count and
  // compare the projected (b, c) pairs as bags.
  auto head_count = db.Count({.table = "t",
                              .column = "a",
                              .predicate = Pred::All(),
                              .strategy = kDmlConfigs[0]});
  ASSERT_TRUE(head_count.ok());
  ASSERT_EQ(*head_count, expect.size()) << "seed " << seed;
  std::vector<std::array<std::int64_t, 2>> got_pairs(r->num_rows);
  std::vector<std::array<std::int64_t, 2>> expect_pairs(expect.size());
  for (std::size_t i = 0; i < r->num_rows; ++i) {
    got_pairs[i] = {r->columns[0][i], r->columns[1][i]};
  }
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect_pairs[i] = {expect[i][1], expect[i][2]};
  }
  std::sort(got_pairs.begin(), got_pairs.end());
  std::sort(expect_pairs.begin(), expect_pairs.end());
  EXPECT_EQ(got_pairs, expect_pairs) << "seed " << seed;
}

}  // namespace
}  // namespace aidx
