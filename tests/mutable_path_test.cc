// The mutable AccessPath surface: every strategy must answer a randomized
// mixed insert/delete/query workload exactly like a scan-with-updates
// oracle (a plain vector mutated in lockstep), across value types. This is
// the executable contract behind Database::Insert/Delete.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "exec/access_path.h"
#include "exec/engine.h"
#include "index/scan.h"
#include "util/rng.h"

namespace aidx {
namespace {

/// All strategy configs the mixed-workload contract must hold for. Small
/// run/partition sizes so merge machinery engages at test scale.
std::vector<StrategyConfig> AllStrategies() {
  std::vector<StrategyConfig> configs = {
      StrategyConfig::FullScan(),
      StrategyConfig::FullSort(),
      StrategyConfig::BTree(),
      StrategyConfig::Crack(),
      StrategyConfig::StochasticCrack(512),
      StrategyConfig::AdaptiveMerge(700),
      StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kSort, 700),
      StrategyConfig::Hybrid(OrganizeMode::kSort, OrganizeMode::kSort, 700),
      StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kRadix, 700),
      StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kCrack, 700),
      StrategyConfig::ParallelCrack(4, 1),
  };
  // The crack pipeline under each SIGMOD'07 merge policy.
  StrategyConfig mci = StrategyConfig::Crack();
  mci.merge_policy = MergePolicy::kComplete;
  configs.push_back(mci);
  StrategyConfig mgi = StrategyConfig::Crack();
  mgi.merge_policy = MergePolicy::kGradual;
  mgi.gradual_budget = 8;
  configs.push_back(mgi);
  return configs;
}

template <typename T>
struct ValueDomain;  // maps the test's integer dice to typed values

template <>
struct ValueDomain<std::int32_t> {
  static std::int32_t Make(std::uint64_t raw) { return static_cast<std::int32_t>(raw); }
};
template <>
struct ValueDomain<std::int64_t> {
  static std::int64_t Make(std::uint64_t raw) { return static_cast<std::int64_t>(raw); }
};
template <>
struct ValueDomain<double> {
  // Quarter-steps: exercises non-integer keys while keeping sums exact in
  // long double arithmetic.
  static double Make(std::uint64_t raw) { return static_cast<double>(raw) * 0.25; }
};

template <typename T>
class MutablePathTypedTest : public ::testing::Test {};

using ValueTypes = ::testing::Types<std::int32_t, std::int64_t, double>;
TYPED_TEST_SUITE(MutablePathTypedTest, ValueTypes);

/// Deletes one occurrence of `v` from the oracle; false when absent.
template <typename T>
bool OracleDelete(std::vector<T>* model, T v) {
  for (std::size_t i = 0; i < model->size(); ++i) {
    if ((*model)[i] == v) {
      (*model)[i] = model->back();
      model->pop_back();
      return true;
    }
  }
  return false;
}

TYPED_TEST(MutablePathTypedTest, MixedWorkloadMatchesOracle) {
  using T = TypeParam;
  constexpr std::uint64_t kDomain = 2000;
  for (const StrategyConfig& config : AllStrategies()) {
    Rng rng(41);
    std::vector<T> base(3000);
    for (auto& v : base) v = ValueDomain<T>::Make(rng.NextBounded(kDomain));
    std::vector<T> model = base;

    auto path = MakeAccessPath<T>(base, config);
    ASSERT_NE(path, nullptr);
    const std::string label = config.DisplayName() + "/" +
                              MergePolicyName(config.merge_policy);
    for (int step = 0; step < 900; ++step) {
      const auto dice = rng.NextBounded(10);
      if (dice < 3) {  // insert
        const T v = ValueDomain<T>::Make(rng.NextBounded(kDomain));
        path->Insert(v);
        model.push_back(v);
      } else if (dice < 5) {  // delete (sometimes a value that is absent)
        T v;
        if (rng.NextBounded(4) == 0 || model.empty()) {
          v = ValueDomain<T>::Make(kDomain + rng.NextBounded(50));  // absent
        } else {
          v = model[rng.NextBounded(model.size())];
        }
        const bool expect = OracleDelete(&model, v);
        ASSERT_EQ(path->Delete(v), expect) << label << " step " << step;
      } else if (dice < 9) {  // count
        const auto lo = ValueDomain<T>::Make(rng.NextBounded(kDomain));
        const auto hi = ValueDomain<T>::Make(rng.NextBounded(200));
        const auto pred = RangePredicate<T>::Between(lo, lo + hi);
        ASSERT_EQ(path->Count(pred), ScanCount<T>(model, pred))
            << label << " step " << step << " " << pred.ToString();
      } else {  // sum
        const auto lo = ValueDomain<T>::Make(rng.NextBounded(kDomain));
        const auto pred = RangePredicate<T>::Between(lo, lo + ValueDomain<T>::Make(150));
        const auto got = static_cast<double>(path->Sum(pred));
        const auto want = static_cast<double>(ScanSum<T>(model, pred));
        ASSERT_DOUBLE_EQ(got, want) << label << " step " << step;
      }
    }
    // Drain: the full-range count must equal the oracle's live size.
    ASSERT_EQ(path->Count(RangePredicate<T>::All()), model.size()) << label;
  }
}

TEST(MutablePathTest, BatchVariantsMatchScalarSemantics) {
  using T = std::int64_t;
  Rng rng(7);
  std::vector<T> base(2000);
  for (auto& v : base) v = static_cast<T>(rng.NextBounded(500));
  for (const StrategyConfig& config : AllStrategies()) {
    std::vector<T> model = base;
    auto path = MakeAccessPath<T>(base, config);
    const auto pred = RangePredicate<T>::Between(100, 400);
    ASSERT_EQ(path->Count(pred), ScanCount<T>(model, pred));

    std::vector<T> batch(64);
    for (auto& v : batch) v = static_cast<T>(rng.NextBounded(500));
    path->InsertBatch(batch);
    model.insert(model.end(), batch.begin(), batch.end());
    ASSERT_EQ(path->Count(pred), ScanCount<T>(model, pred)) << config.DisplayName();

    // Delete the batch again plus some values that may be absent.
    std::vector<T> victims = batch;
    victims.push_back(10'000);  // definitely absent
    std::size_t expect_deleted = 0;
    for (const T v : victims) expect_deleted += OracleDelete(&model, v) ? 1 : 0;
    ASSERT_EQ(path->DeleteBatch(victims), expect_deleted) << config.DisplayName();
    ASSERT_EQ(path->Count(pred), ScanCount<T>(model, pred)) << config.DisplayName();
    ASSERT_EQ(path->Count(RangePredicate<T>::All()), model.size())
        << config.DisplayName();
  }
}

TEST(MutablePathTest, UpdateStatsProbeCountsWrites) {
  using T = std::int64_t;
  Rng rng(9);
  std::vector<T> base(1000);
  for (auto& v : base) v = static_cast<T>(rng.NextBounded(300));
  for (const StrategyConfig& config : AllStrategies()) {
    auto path = MakeAccessPath<T>(base, config);
    for (int i = 0; i < 20; ++i) {
      path->Insert(static_cast<T>(rng.NextBounded(300)));
    }
    path->Count(RangePredicate<T>::All());
    const UpdateStats stats = path->update_stats();
    EXPECT_EQ(stats.inserts_queued, 20u) << config.DisplayName();
    // A full-range query leaves nothing pending under any strategy.
    EXPECT_EQ(stats.inserts_merged, 20u) << config.DisplayName();
  }
}

TEST(MutablePathTest, MergePolicySelectableThroughConfig) {
  using T = std::int64_t;
  Rng rng(11);
  std::vector<T> base(2000);
  for (auto& v : base) v = static_cast<T>(rng.NextBounded(1000));

  // MCI drains every pending insert at the first query; MRI only merges
  // the queried range. Observable through the uniform stats probe.
  StrategyConfig complete = StrategyConfig::Crack();
  complete.merge_policy = MergePolicy::kComplete;
  auto mci = MakeAccessPath<T>(base, complete);
  auto mri = MakeAccessPath<T>(base, StrategyConfig::Crack());
  for (auto* path : {mci.get(), mri.get()}) {
    path->Count(RangePredicate<T>::Between(0, 999));  // crack broadly
    path->Insert(100);
    path->Insert(500);
    path->Insert(900);
    path->Count(RangePredicate<T>::Between(450, 550));  // touches only 500
  }
  EXPECT_EQ(mci->update_stats().inserts_merged, 3u);
  EXPECT_EQ(mri->update_stats().inserts_merged, 1u);
}

/// The exact sum of the values matching `pred`, rounded once: an __int128
/// reference independent of the aggregate kernel.
long double ExactSum(const std::vector<std::int64_t>& values,
                     const RangePredicate<std::int64_t>& pred) {
  __int128 sum = 0;
  for (const std::int64_t v : values) {
    if (pred.Matches(v)) sum += v;
  }
  return static_cast<long double>(sum);
}

/// Values near INT64_MAX first, small ones next, values near INT64_MIN
/// last: a running long double sum passes 2^64 in storage order (and in
/// sorted order from the other end), after which small addends lose bits.
/// The extremes balance, so the full sum is small and the lost bits show
/// even after narrowing to double.
std::vector<std::int64_t> ExtremeColumn() {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  Rng rng(23);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 39; ++i) {
    values.push_back(kMax - static_cast<std::int64_t>(rng.NextBounded(1000)));
  }
  for (int i = 0; i < 500; ++i) {
    values.push_back(static_cast<std::int64_t>(rng.NextBounded(2001)) - 1000);
  }
  for (int i = 0; i < 39; ++i) {
    values.push_back(kMin + static_cast<std::int64_t>(rng.NextBounded(1000)));
  }
  values.push_back(kMin);
  values.push_back(kMax);
  return values;
}

std::vector<RangePredicate<std::int64_t>> ExtremePredicates() {
  using P = RangePredicate<std::int64_t>;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  return {P::All(),
          P::Between(-700, 700),
          P::AtLeast(kMax - 500),
          P::GreaterThan(kMin),
          P::LessThan(kMax),
          P::Between(kMin, 10),
          P::AtMost(kMin + 400),
          P::HalfOpen(-3, kMax)};
}

TEST(MutablePathTest, Int64SumsAreExactAtTheExtremes) {
  using T = std::int64_t;
  const std::vector<T> base = ExtremeColumn();
  for (const StrategyConfig& config : AllStrategies()) {
    std::vector<T> model = base;
    auto path = MakeAccessPath<T>(base, config);
    const std::string label = config.DisplayName() + "/" +
                              MergePolicyName(config.merge_policy);
    for (const auto& pred : ExtremePredicates()) {
      EXPECT_EQ(path->Sum(pred), ExactSum(model, pred))
          << label << " " << pred.ToString();
    }
    // Writes at the extremes reach the answer through each strategy's
    // pending-update path (overlays, delta buffers, fresh runs).
    for (const T v : {std::numeric_limits<T>::max() - 7, std::numeric_limits<T>::min() + 3,
                      T{5}, std::numeric_limits<T>::max()}) {
      path->Insert(v);
      model.push_back(v);
    }
    for (const T v : {base[3], base[560], base[45]}) {
      ASSERT_TRUE(path->Delete(v)) << label;
      ASSERT_TRUE(OracleDelete(&model, v)) << label;
    }
    for (const auto& pred : ExtremePredicates()) {
      EXPECT_EQ(path->Sum(pred), ExactSum(model, pred))
          << label << " after writes " << pred.ToString();
    }
  }
}

TEST(MutablePathTest, DatabaseInt64SumIsExactAtTheExtremes) {
  const std::vector<std::int64_t> values = ExtremeColumn();
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  ASSERT_TRUE(db.AddColumn("t", "v", std::vector<std::int64_t>(values)).ok());
  for (const StrategyConfig& config : AllStrategies()) {
    for (const auto& pred : ExtremePredicates()) {
      QueryRequest req;
      req.table = "t";
      req.column = "v";
      req.predicate = pred;
      req.strategy = config;
      const Result<double> sum = db.Sum(req);
      ASSERT_TRUE(sum.ok()) << config.DisplayName();
      // Database::Sum narrows the path's long double answer to double.
      EXPECT_EQ(*sum, static_cast<double>(ExactSum(values, pred)))
          << config.DisplayName() << " " << pred.ToString();
    }
  }
}

// A NaN bound orders against no value, so it matches nothing — on every
// strategy, before and after the path has cracked. A crack path must not
// turn it into a cut: NaN has no place in the cracker index's total order.
TEST(MutablePathTest, NanBoundMatchesNothingOnEveryStrategy) {
  using P = RangePredicate<double>;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> base(2000);
  Rng rng(67);
  for (double& v : base) v = ValueDomain<double>::Make(rng.NextBounded(800));
  const std::vector<P> nan_preds = {
      P::Between(nan, nan), P::Between(1.0, nan), P::Between(nan, 50.0),
      P::HalfOpen(nan, nan), P::AtLeast(nan),     P::LessThan(nan),
      P{nan, BoundKind::kExclusive, nan, BoundKind::kExclusive}};
  const P warm = P::Between(20.0, 90.0);
  for (const StrategyConfig& config : AllStrategies()) {
    auto path = MakeAccessPath<double>(base, config);
    for (int round = 0; round < 2; ++round) {
      for (const P& pred : nan_preds) {
        EXPECT_TRUE(pred.DefinitelyEmpty()) << pred.ToString();
        EXPECT_EQ(ScanCount<double>(base, pred), 0u) << pred.ToString();
        EXPECT_EQ(path->Count(pred), 0u) << config.DisplayName() << " " << pred.ToString();
        EXPECT_EQ(path->Sum(pred), 0.0L) << config.DisplayName() << " " << pred.ToString();
      }
      // Crack the path between rounds; its answers stay exact.
      ASSERT_EQ(path->Count(warm), ScanCount<double>(base, warm)) << config.DisplayName();
    }
  }
}

}  // namespace
}  // namespace aidx
