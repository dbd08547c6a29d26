// Integration matrix: every strategy × every workload pattern × several
// data distributions, validated query-by-query against the scan oracle.
// Also: the coarse-latch concurrency baseline and the multi-attribute
// sideways select.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "../bench/serialized_path.h"
#include "exec/access_path.h"
#include "index/scan.h"
#include "sideways/sideways.h"
#include "storage/table.h"
#include "util/rng.h"
#include "workload/data_generator.h"
#include "workload/query_generator.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;

struct MatrixParam {
  StrategyKind kind;
  OrganizeMode initial;
  OrganizeMode final_mode;
  QueryPattern pattern;
  DataDistribution distribution;
};

StrategyConfig ConfigFor(const MatrixParam& p) {
  StrategyConfig config;
  config.kind = p.kind;
  config.hybrid_initial = p.initial;
  config.hybrid_final = p.final_mode;
  config.run_size = 1500;          // small so several runs/partitions exist
  config.stochastic_threshold = 512;
  return config;
}

class StrategyWorkloadMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(StrategyWorkloadMatrixTest, EveryQueryMatchesOracle) {
  const MatrixParam& param = GetParam();
  const std::size_t n = 8000;
  const auto data = GenerateData({.n = n,
                                  .domain = static_cast<std::int64_t>(n),
                                  .distribution = param.distribution,
                                  .zipf_theta = 1.1,
                                  .seed = 77});
  const auto queries = GenerateQueries({.pattern = param.pattern,
                                        .num_queries = 250,
                                        .domain = static_cast<std::int64_t>(n),
                                        .selectivity = 0.01,
                                        .seed = 78});
  auto path = MakeAccessPath<std::int64_t>(data, ConfigFor(param));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(path->Count(queries[q]), ScanCount<std::int64_t>(data, queries[q]))
        << path->name() << " / " << QueryPatternName(param.pattern) << " / "
        << DataDistributionName(param.distribution) << " query " << q;
  }
}

std::vector<MatrixParam> BuildMatrix() {
  const StrategyKind kinds[] = {StrategyKind::kCrack, StrategyKind::kStochasticCrack,
                                StrategyKind::kAdaptiveMerge, StrategyKind::kHybrid};
  const QueryPattern patterns[] = {QueryPattern::kRandom, QueryPattern::kSequential,
                                   QueryPattern::kSkewed, QueryPattern::kZoomIn};
  const DataDistribution dists[] = {DataDistribution::kUniform,
                                    DataDistribution::kZipfValues,
                                    DataDistribution::kNearlySorted};
  std::vector<MatrixParam> out;
  for (const auto kind : kinds) {
    for (const auto pattern : patterns) {
      for (const auto dist : dists) {
        out.push_back({kind, OrganizeMode::kCrack, OrganizeMode::kSort, pattern, dist});
      }
    }
  }
  // A few extra hybrid corners on the random pattern.
  out.push_back({StrategyKind::kHybrid, OrganizeMode::kRadix, OrganizeMode::kRadix,
                 QueryPattern::kRandom, DataDistribution::kUniform});
  out.push_back({StrategyKind::kHybrid, OrganizeMode::kSort, OrganizeMode::kCrack,
                 QueryPattern::kPeriodic, DataDistribution::kUniform});
  return out;
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto& p = info.param;
  StrategyConfig config = ConfigFor(p);
  std::string name = config.DisplayName();
  name += "_";
  name += QueryPatternName(p.pattern);
  name += "_";
  name += DataDistributionName(p.distribution);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + std::to_string(info.index);
}

INSTANTIATE_TEST_SUITE_P(Matrix, StrategyWorkloadMatrixTest,
                         ::testing::ValuesIn(BuildMatrix()), MatrixName);

TEST(SerializedPathTest, ConcurrentQueriesOnSharedCrackedColumn) {
  const std::size_t n = 50000;
  const auto data = GenerateData({.n = n, .domain = static_cast<std::int64_t>(n),
                                  .seed = 91});
  auto path = MakeSerializedAccessPath<std::int64_t>(data, StrategyConfig::Crack());
  EXPECT_EQ(path->name(), "crack+latch");

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 200;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const auto a = static_cast<std::int64_t>(rng.NextBounded(n));
        const auto pred = Pred::Between(a, a + 500);
        const std::size_t got = path->Count(pred);
        const std::size_t expect = ScanCount<std::int64_t>(data, pred);
        if (got != expect) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SidewaysMultiSelectTest, SelectCountWhereMatchesRowOracle) {
  const std::size_t n = 4000;
  const auto head = GenerateData({.n = n, .domain = 1000, .seed = 92});
  const auto tail = GenerateData({.n = n, .domain = 1000, .seed = 93});
  Table table("t");
  ASSERT_TRUE(table.AddColumn<std::int64_t>("a", head).ok());
  ASSERT_TRUE(table.AddColumn<std::int64_t>("b", tail).ok());
  SidewaysCracker<std::int64_t> cracker(&table, "a");
  ASSERT_TRUE(cracker.AddTailColumn("b").ok());
  Rng rng(94);
  for (int q = 0; q < 100; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(1000));
    const auto b = static_cast<std::int64_t>(rng.NextBounded(1000));
    const Pred head_pred = Pred::Between(a, a + 80);
    const Pred tail_pred = Pred::Between(b, b + 200);
    auto got = cracker.SelectCountWhere(head_pred, "b", tail_pred);
    ASSERT_TRUE(got.ok());
    std::size_t expect = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expect += head_pred.Matches(head[i]) && tail_pred.Matches(tail[i]) ? 1 : 0;
    }
    ASSERT_EQ(*got, expect) << "query " << q;
  }
  EXPECT_TRUE(cracker.Validate());
}

TEST(SidewaysMultiSelectTest, UnknownTailRejected) {
  Table table("t");
  ASSERT_TRUE(
      table.AddColumn("a", GenerateData({.n = 100, .domain = 10, .seed = 95})).ok());
  SidewaysCracker<std::int64_t> cracker(&table, "a");
  EXPECT_TRUE(cracker.SelectCountWhere(Pred::Between(1, 5), "nope", Pred::All())
                  .status()
                  .IsNotFound());
}

}  // namespace
}  // namespace aidx
