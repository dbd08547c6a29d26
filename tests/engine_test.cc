// The Database facade and the AccessPath registry: every strategy must
// agree with the scan oracle through the uniform interface (TEST_P), and
// the facade's error paths must surface proper Statuses.
#include "exec/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "exec/access_path.h"
#include "exec/operators.h"
#include "index/scan.h"
#include "util/rng.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;

std::vector<std::int64_t> RandomValues(std::size_t n, std::int64_t domain,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(domain));
  return v;
}

// One strategy under test plus the seeds of its column and query stream.
struct StrategyCase {
  StrategyConfig config;
  std::uint64_t data_seed = 51;
  std::uint64_t query_seed = 52;

  friend void PrintTo(const StrategyCase& c, std::ostream* os) {
    *os << c.config.DisplayName() << " seeds " << c.data_seed << " " << c.query_seed;
  }
};

class AccessPathStrategyTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(AccessPathStrategyTest, AgreesWithScanOracle) {
  const auto base = RandomValues(5000, 2000, GetParam().data_seed);
  auto path = MakeAccessPath<std::int64_t>(base, GetParam().config);
  ASSERT_NE(path, nullptr);
  Rng rng(GetParam().query_seed);
  for (int q = 0; q < 150; ++q) {
    const std::int64_t a = rng.NextInRange(-10, 2010);
    const std::int64_t w = rng.NextInRange(0, 250);
    const auto p = Pred::HalfOpen(a, a + w);
    ASSERT_EQ(path->Count(p), ScanCount<std::int64_t>(base, p))
        << path->name() << " q" << q << " " << p.ToString();
  }
  // Sum agreement on a few queries.
  for (int q = 0; q < 10; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(2000));
    const auto p = Pred::Between(a, a + 100);
    ASSERT_DOUBLE_EQ(static_cast<double>(path->Sum(p)),
                     static_cast<double>(ScanSum<std::int64_t>(base, p)))
        << path->name();
  }
}

const StrategyCase kStrategyCases[] = {
    {StrategyConfig::FullScan()},
    {StrategyConfig::FullSort()},
    {StrategyConfig::BTree()},
    {StrategyConfig::Crack()},
    {StrategyConfig::StochasticCrack(512)},
    {StrategyConfig::AdaptiveMerge(700)},
    {StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kSort, 700)},
    {StrategyConfig::Hybrid(OrganizeMode::kSort, OrganizeMode::kSort, 700)},
    {StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kRadix, 700)},
};

INSTANTIATE_TEST_SUITE_P(
    Strategies, AccessPathStrategyTest,
    ::testing::ValuesIn(kStrategyCases),
    [](const auto& info) {
      std::string name = info.param.config.DisplayName();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(StrategyConfigTest, DisplayNames) {
  EXPECT_EQ(StrategyConfig::FullScan().DisplayName(), "scan");
  EXPECT_EQ(StrategyConfig::FullSort().DisplayName(), "sort");
  EXPECT_EQ(StrategyConfig::BTree().DisplayName(), "btree");
  EXPECT_EQ(StrategyConfig::Crack().DisplayName(), "crack");
  EXPECT_EQ(StrategyConfig::StochasticCrack().DisplayName(), "stochastic");
  EXPECT_EQ(StrategyConfig::AdaptiveMerge().DisplayName(), "merge");
  EXPECT_EQ(
      StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kSort).DisplayName(),
      "HCS");
}

TEST(DatabaseTest, EndToEndCountAcrossStrategies) {
  Database db;
  ASSERT_TRUE(db.CreateTable("orders").ok());
  const auto amounts = RandomValues(3000, 1000, 53);
  ASSERT_TRUE(db.AddColumn("orders", "amount", std::vector<std::int64_t>(amounts)).ok());

  const auto p = Pred::Between(100, 300);
  const std::size_t expect = ScanCount<std::int64_t>(amounts, p);
  for (const auto& config :
       {StrategyConfig::FullScan(), StrategyConfig::Crack(),
        StrategyConfig::AdaptiveMerge(512),
        StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kSort, 512)}) {
    auto count = db.Count({.table = "orders",
                           .column = "amount",
                           .predicate = p,
                           .strategy = config});
    ASSERT_TRUE(count.ok()) << config.DisplayName();
    EXPECT_EQ(*count, expect) << config.DisplayName();
  }
  // One cached path per strategy.
  EXPECT_EQ(db.num_cached_paths(), 4u);
  // Repeat queries hit the cached adaptive structure.
  ASSERT_TRUE(db.Count({.table = "orders",
                        .column = "amount",
                        .predicate = p,
                        .strategy = StrategyConfig::Crack()}).ok());
  EXPECT_EQ(db.num_cached_paths(), 4u);
}

TEST(DatabaseTest, SumMatchesOracle) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  const auto values = RandomValues(2000, 500, 54);
  ASSERT_TRUE(db.AddColumn("t", "v", std::vector<std::int64_t>(values)).ok());
  const auto p = Pred::Between(100, 400);
  auto sum = db.Sum({.table = "t",
                     .column = "v",
                     .predicate = p,
                     .strategy = StrategyConfig::Crack()});
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, static_cast<double>(ScanSum<std::int64_t>(values, p)));
}

TEST(DatabaseTest, SelectProjectViaSideways) {
  Database db;
  ASSERT_TRUE(db.CreateTable("lineitem").ok());
  const std::size_t n = 2000;
  const auto keys = RandomValues(n, 400, 55);
  std::vector<std::int64_t> price(n);
  std::vector<std::int64_t> qty(n);
  for (std::size_t i = 0; i < n; ++i) {
    price[i] = keys[i] * 3;
    qty[i] = keys[i] % 7;
  }
  ASSERT_TRUE(db.AddColumn("lineitem", "shipdate", std::vector<std::int64_t>(keys)).ok());
  ASSERT_TRUE(db.AddColumn("lineitem", "price", std::move(price)).ok());
  ASSERT_TRUE(db.AddColumn("lineitem", "qty", std::move(qty)).ok());

  const auto p = Pred::Between(100, 200);
  auto res = db.SelectProject({.table = "lineitem",
                               .column = "shipdate",
                               .predicate = p,
                               .tails = {"price", "qty"}});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->num_rows, ScanCount<std::int64_t>(keys, p));
  for (std::size_t i = 0; i < res->num_rows; ++i) {
    const std::int64_t key = res->columns[0][i] / 3;
    ASSERT_TRUE(p.Matches(key));
    ASSERT_EQ(res->columns[1][i], key % 7);
  }
}

TEST(DatabaseTest, ErrorPaths) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  EXPECT_TRUE(db.CreateTable("t").IsAlreadyExists());
  EXPECT_TRUE(db.AddColumn("ghost", "v", {1}).IsNotFound());
  ASSERT_TRUE(db.AddColumn("t", "v", {1, 2, 3}).ok());
  EXPECT_TRUE(db.AddColumn("t", "v", {1, 2, 3}).IsAlreadyExists());
  EXPECT_TRUE(db.Count({.table = "ghost",
                        .column = "v",
                        .predicate = Pred::Between(1, 2),
                        .strategy = StrategyConfig::Crack()})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(db.Count({.table = "t",
                        .column = "ghost",
                        .predicate = Pred::Between(1, 2),
                        .strategy = StrategyConfig::Crack()})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(db.SelectProject({.table = "t",
                                .column = "v",
                                .predicate = Pred::Between(1, 2),
                                .tails = {"ghost"}})
                  .status()
                  .IsNotFound());
}

TEST(DatabaseTest, ResetAdaptiveStateDropsCaches) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  ASSERT_TRUE(db.AddColumn("t", "v", RandomValues(500, 100, 56)).ok());
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "v",
                        .predicate = Pred::Between(1, 50),
                        .strategy = StrategyConfig::Crack()}).ok());
  EXPECT_EQ(db.num_cached_paths(), 1u);
  db.ResetAdaptiveState();
  EXPECT_EQ(db.num_cached_paths(), 0u);
  // Still answers after reset (fresh adaptive state).
  auto count = db.Count({.table = "t",
                         .column = "v",
                         .predicate = Pred::Between(1, 50),
                         .strategy = StrategyConfig::Crack()});
  ASSERT_TRUE(count.ok());
}

// Regression for the old DisplayName-keyed cache: same-kind configs that
// differ only in knobs the name omits must get distinct adaptive
// structures (AdaptiveMerge(512) and AdaptiveMerge(2048) both print
// "merge" and used to alias).
TEST(DatabaseTest, StructuralCacheKeyDistinguishesKnobs) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  ASSERT_TRUE(db.AddColumn("t", "v", RandomValues(4000, 1000, 57)).ok());
  const auto p = Pred::Between(100, 500);
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "v",
                        .predicate = p,
                        .strategy = StrategyConfig::AdaptiveMerge(512)}).ok());
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "v",
                        .predicate = p,
                        .strategy = StrategyConfig::AdaptiveMerge(2048)}).ok());
  EXPECT_EQ(db.num_cached_paths(), 2u);
  // Same for crack configs differing only in merge policy.
  StrategyConfig mci = StrategyConfig::Crack();
  mci.merge_policy = MergePolicy::kComplete;
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "v",
                        .predicate = p,
                        .strategy = StrategyConfig::Crack()}).ok());
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "v",
                        .predicate = p,
                        .strategy = mci}).ok());
  EXPECT_EQ(db.num_cached_paths(), 4u);
  // Identical configs still share one structure.
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "v",
                        .predicate = p,
                        .strategy = StrategyConfig::AdaptiveMerge(512)}).ok());
  EXPECT_EQ(db.num_cached_paths(), 4u);
}

// Kernel variants of one strategy are distinct adaptive structures (their
// physical layouts diverge) — distinct in the cache, distinct in the name.
TEST(DatabaseTest, CacheAndDisplayNameDistinguishKernelVariants) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  ASSERT_TRUE(db.AddColumn("t", "v", RandomValues(4000, 1000, 60)).ok());
  const auto p = Pred::Between(100, 500);
  const auto expect = db.Count({.table = "t",
                                .column = "v",
                                .predicate = p,
                                .strategy = StrategyConfig::FullScan()});
  ASSERT_TRUE(expect.ok());
  std::size_t paths = db.num_cached_paths();
  for (const CrackKernel kernel :
       {CrackKernel::kBranchy, CrackKernel::kPredicatedUnrolled}) {
    StrategyConfig config = StrategyConfig::Crack();
    config.crack_kernel = kernel;
    auto count = db.Count({.table = "t",
                           .column = "v",
                           .predicate = p,
                           .strategy = config});
    ASSERT_TRUE(count.ok()) << config.DisplayName();
    EXPECT_EQ(*count, *expect) << config.DisplayName();
    EXPECT_EQ(db.num_cached_paths(), ++paths)
        << config.DisplayName() << " aliased an existing kernel variant";
  }
  EXPECT_EQ(StrategyConfig::Crack().DisplayName(), "crack");
  StrategyConfig pred_config = StrategyConfig::Crack();
  pred_config.crack_kernel = CrackKernel::kPredicatedUnrolled;
  EXPECT_EQ(pred_config.DisplayName(), "crack+vec");
}

TEST(DatabaseTest, InsertAndDeleteKeepEveryCachedPathConsistent) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  auto values = RandomValues(3000, 1000, 58);
  ASSERT_TRUE(db.AddColumn("t", "v", std::vector<std::int64_t>(values)).ok());

  const std::vector<StrategyConfig> configs = {
      StrategyConfig::FullScan(),
      StrategyConfig::FullSort(),
      StrategyConfig::BTree(),
      StrategyConfig::Crack(),
      StrategyConfig::StochasticCrack(512),
      StrategyConfig::AdaptiveMerge(700),
      StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kSort, 700),
      StrategyConfig::ParallelCrack(4, 1),
  };
  const auto p = Pred::Between(200, 600);
  // Warm every path, then write through the facade.
  for (const auto& config : configs) {
    ASSERT_TRUE(db.Count({.table = "t",
                          .column = "v",
                          .predicate = p,
                          .strategy = config}).ok());
  }
  Rng rng(59);
  for (int i = 0; i < 50; ++i) {
    const auto v = static_cast<std::int64_t>(rng.NextBounded(1000));
    ASSERT_TRUE(db.Insert("t", {v}).ok());
    values.push_back(v);
  }
  for (int i = 0; i < 20; ++i) {
    const auto v = values[rng.NextBounded(values.size())];
    auto deleted = db.Delete("t", "v", v);
    ASSERT_TRUE(deleted.ok());
    EXPECT_TRUE(*deleted);
    values.erase(std::find(values.begin(), values.end(), v));
  }
  const std::size_t expect = ScanCount<std::int64_t>(values, p);
  for (const auto& config : configs) {
    auto count = db.Count({.table = "t",
                           .column = "v",
                           .predicate = p,
                           .strategy = config});
    ASSERT_TRUE(count.ok()) << config.DisplayName();
    EXPECT_EQ(*count, expect) << config.DisplayName();
  }
  // A path created only now (fresh strategy) sees the mutated base.
  auto fresh = db.Count({.table = "t",
                         .column = "v",
                         .predicate = p,
                         .strategy = StrategyConfig::AdaptiveMerge(512)});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, expect);
  // The catalog's base column mirrors the live multiset.
  auto span = db.catalog().GetTable("t").value()->GetTypedColumn<std::int64_t>("v");
  ASSERT_TRUE(span.ok());
  EXPECT_EQ((*span)->size(), values.size());
}

TEST(DatabaseTest, DeleteOfAbsentValueIsANoOp) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  ASSERT_TRUE(db.AddColumn("t", "v", {1, 2, 3}).ok());
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "v",
                        .predicate = Pred::All(),
                        .strategy = StrategyConfig::Crack()}).ok());
  auto deleted = db.Delete("t", "v", 99);
  ASSERT_TRUE(deleted.ok());
  EXPECT_FALSE(*deleted);
  auto count = db.Count({.table = "t",
                         .column = "v",
                         .predicate = Pred::All(),
                         .strategy = StrategyConfig::Crack()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  EXPECT_TRUE(db.Delete("ghost", "v", 1).status().IsNotFound());
}

TEST(DatabaseTest, InsertBatchMatchesScalarInserts) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  auto values = RandomValues(500, 100, 60);
  ASSERT_TRUE(db.AddColumn("t", "v", std::vector<std::int64_t>(values)).ok());
  const auto p = Pred::Between(10, 90);
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "v",
                        .predicate = p,
                        .strategy = StrategyConfig::Crack()}).ok());
  const std::vector<std::int64_t> batch = {5, 50, 95, 50};
  ASSERT_TRUE(db.InsertBatch("t", batch).ok());
  values.insert(values.end(), batch.begin(), batch.end());
  auto count = db.Count({.table = "t",
                         .column = "v",
                         .predicate = p,
                         .strategy = StrategyConfig::Crack()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, ScanCount<std::int64_t>(values, p));
}

// DML does not drop the table's cached sideways crackers: row mutations
// flow into the cracker's operation log and live maps fold them in
// incrementally (ripple moves), so the cracked investment survives writes.
TEST(DatabaseTest, SidewaysMaintainedIncrementallyAcrossWrites) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  ASSERT_TRUE(db.AddColumn("t", "k", {10, 20, 30}).ok());
  ASSERT_TRUE(db.AddColumn("t", "a", {1, 2, 3}).ok());
  const auto p = Pred::Between(10, 30);
  auto before = db.SelectProject({.table = "t",
                                  .column = "k",
                                  .predicate = p,
                                  .tails = {"a"}});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->num_rows, 3u);
  // Row-atomic writes: one value per column, column_names() order (k, a).
  ASSERT_TRUE(db.Insert("t", {25, 9}).ok());
  auto after = db.SelectProject({.table = "t",
                                 .column = "k",
                                 .predicate = p,
                                 .tails = {"a"}});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->num_rows, 4u);
  // The cracker (and its map) survived the write instead of rebuilding.
  auto state = db.SidewaysState("t", "k");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ((*state)->stats().maps_created, 1u);
  EXPECT_EQ((*state)->stats().dml_inserts, 1u);
  // Row-atomic delete removes the first row whose key column matches.
  auto deleted = db.Delete("t", "k", 25);
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(*deleted);
  auto final_res = db.SelectProject({.table = "t",
                                     .column = "k",
                                     .predicate = p,
                                     .tails = {"a"}});
  ASSERT_TRUE(final_res.ok());
  EXPECT_EQ(final_res->num_rows, 3u);
}

// Cached state hangs off the catalog column it indexes, so two tables that
// share column names never see each other's writes. The second table's
// name is the first's plus ".u": no table and column names are ever
// joined into one key that could collide.
TEST(DatabaseTest, DmlOnOneTableLeavesAnotherTablesStateAlone) {
  Database db;
  for (const char* table : {"t", "t.u"}) {
    ASSERT_TRUE(db.CreateTable(table).ok());
    ASSERT_TRUE(db.AddColumn(table, "k", {10, 20, 30}).ok());
    ASSERT_TRUE(db.AddColumn(table, "v", {1, 2, 3}).ok());
    ASSERT_TRUE(db.Count({.table = table,
                          .column = "k",
                          .predicate = Pred::All(),
                          .strategy = StrategyConfig::Crack()}).ok());
    ASSERT_TRUE(db.SelectProject({.table = table,
                                  .column = "k",
                                  .predicate = Pred::All(),
                                  .tails = {"v"}}).ok());
  }
  ASSERT_EQ(db.num_cached_paths(), 2u);
  ASSERT_EQ(db.num_cached_sideways(), 2u);

  ASSERT_TRUE(db.Insert("t", {40, 4}).ok());
  auto deleted = db.Delete("t", "k", 10);
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(*deleted);

  const auto count = [&](const char* table) {
    return db.Count({.table = table,
                     .column = "k",
                     .predicate = Pred::All(),
                     .strategy = StrategyConfig::Crack()});
  };
  EXPECT_EQ(*count("t"), 3u);
  EXPECT_EQ(*count("t.u"), 3u);
  const auto* mine = *db.SidewaysState("t", "k");
  const auto* other = *db.SidewaysState("t.u", "k");
  EXPECT_EQ(mine->stats().dml_inserts, 1u);
  EXPECT_EQ(mine->stats().dml_deletes, 1u);
  EXPECT_EQ(other->stats().dml_inserts, 0u);
  EXPECT_EQ(other->stats().dml_deletes, 0u);
  auto projected = db.SelectProject({.table = "t.u",
                                     .column = "k",
                                     .predicate = Pred::All(),
                                     .tails = {"v"}});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->num_rows, 3u);
  EXPECT_EQ(db.num_cached_paths(), 2u);
}

TEST(OperatorsTest, GatherAndPermutation) {
  const std::vector<std::int64_t> values = {10, 20, 30, 40};
  const std::vector<row_id_t> rids = {3, 0, 2};
  std::vector<std::int64_t> out;
  Gather<std::int64_t>(values, rids, &out);
  EXPECT_EQ(out, (std::vector<std::int64_t>{40, 10, 30}));
  EXPECT_DOUBLE_EQ(static_cast<double>(GatherSum<std::int64_t>(values, rids)), 80.0);
  const std::vector<row_id_t> perm = {1, 0, 3, 2};
  EXPECT_EQ(ApplyPermutation<std::int64_t>(values, perm),
            (std::vector<std::int64_t>{20, 10, 40, 30}));
}

}  // namespace
}  // namespace aidx
