// Sideways cracking: cracker-map mechanics, adaptive alignment invariants,
// multi-column projection correctness against a row-oracle, and the
// partial-cracking storage budget (eviction + failure path).
#include "sideways/sideways.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sideways/cracker_map.h"
#include "storage/table.h"
#include "util/rng.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;
using Map = CrackerMap<std::int64_t>;
using Cracker = SidewaysCracker<std::int64_t>;

std::vector<std::int64_t> RandomValues(std::size_t n, std::int64_t domain,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(domain));
  return v;
}

/// A table of `columns` and a cracker headed by the first one, with every
/// other column registered as a tail. The cracker borrows the table.
struct CrackerOverTable {
  explicit CrackerOverTable(
      std::vector<std::pair<std::string, std::vector<std::int64_t>>> columns,
      Cracker::Options options = {}) {
    for (auto& [name, values] : columns) {
      AIDX_CHECK_OK(table.AddColumn<std::int64_t>(name, std::move(values)));
    }
    cracker = std::make_unique<Cracker>(&table, columns.front().first, options);
    for (std::size_t i = 1; i < columns.size(); ++i) {
      AIDX_CHECK_OK(cracker->AddTailColumn(columns[i].first));
    }
  }

  Table table{"t"};
  std::unique_ptr<Cracker> cracker;
};

TEST(CrackerMapTest, TailTravelsWithHead) {
  // head = key, tail = key * 1000 so consistency is directly checkable.
  const std::size_t n = 2000;
  auto head = RandomValues(n, 500, 1);
  std::vector<std::int64_t> tail(n);
  for (std::size_t i = 0; i < n; ++i) tail[i] = head[i] * 1000;
  Map map(head, tail);
  Rng rng(2);
  for (int q = 0; q < 100; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(500));
    const auto p = Pred::Between(a, a + 30);
    const PositionRange r = map.Select(p);
    const auto h = map.head();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(map.tail_at(i), h[i] * 1000) << "pair broke at " << i;
    }
    for (std::size_t i = r.begin; i < r.end; ++i) {
      ASSERT_TRUE(p.Matches(h[i]));
    }
  }
  EXPECT_TRUE(map.Validate());
}

TEST(CrackerMapTest, SelectCountsMatchOracle) {
  const auto head = RandomValues(3000, 800, 3);
  const auto tail = RandomValues(3000, 100, 4);
  Map map(head, tail);
  Rng rng(5);
  for (int q = 0; q < 200; ++q) {
    const std::int64_t a = rng.NextInRange(-5, 805);
    const std::int64_t w = rng.NextInRange(0, 100);
    const auto p = Pred::HalfOpen(a, a + w);
    std::size_t expect = 0;
    for (const auto v : head) expect += p.Matches(v) ? 1 : 0;
    ASSERT_EQ(map.Select(p).size(), expect) << p.ToString();
  }
}

TEST(CrackerMapTest, DeterministicLayoutUnderSameOps) {
  const auto head = RandomValues(1000, 300, 6);
  const auto tail = RandomValues(1000, 300, 7);
  Map a(head, tail);
  Map b(head, tail);
  Rng rng(8);
  for (int q = 0; q < 60; ++q) {
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(300));
    const auto p = Pred::Between(lo, lo + 20);
    const PositionRange ra = a.Select(p);
    const PositionRange rb = b.Select(p);
    ASSERT_EQ(ra, rb);
  }
  // Byte-identical layouts: the property adaptive alignment relies on.
  EXPECT_TRUE(std::equal(a.head().begin(), a.head().end(), b.head().begin()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.tail_at(i), b.tail_at(i));
    ASSERT_EQ(a.rid_at(i), b.rid_at(i));
  }
}

TEST(CrackerMapTest, RejectsLengthMismatch) {
  const std::vector<std::int64_t> head = {1, 2, 3};
  const std::vector<std::int64_t> tail = {1, 2};
  EXPECT_DEATH({ Map map(head, tail); }, "mismatch");
}

// Fixture with a 4-column table: head "a", tails derived deterministically.
class SidewaysTest : public ::testing::Test {
 protected:
  void SetUp() override {
    head_ = RandomValues(kN, 1000, 11);
    b_.resize(kN);
    c_.resize(kN);
    d_.resize(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      b_[i] = head_[i] + 1;
      c_[i] = head_[i] * 2;
      d_[i] = -head_[i];
    }
    fx_ = std::make_unique<CrackerOverTable>(
        std::vector<std::pair<std::string, std::vector<std::int64_t>>>{
            {"a", head_}, {"b", b_}, {"c", c_}, {"d", d_}});
    cracker_ = fx_->cracker.get();
  }

  static constexpr std::size_t kN = 3000;
  std::vector<std::int64_t> head_, b_, c_, d_;
  std::unique_ptr<CrackerOverTable> fx_;
  Cracker* cracker_ = nullptr;
};

TEST_F(SidewaysTest, SingleColumnProjection) {
  const auto p = Pred::Between(100, 200);
  auto res = cracker_->SelectProject(p, {"b"});
  ASSERT_TRUE(res.ok());
  std::size_t expect = 0;
  for (const auto v : head_) expect += p.Matches(v) ? 1 : 0;
  EXPECT_EQ(res->num_rows, expect);
  // b == a + 1, and a in [100, 200] -> b in [101, 201].
  for (const auto v : res->columns[0]) {
    EXPECT_GE(v, 101);
    EXPECT_LE(v, 201);
  }
}

TEST_F(SidewaysTest, MultiColumnRowsAligned) {
  const auto p = Pred::Between(300, 450);
  auto res = cracker_->SelectProject(p, {"b", "c", "d"});
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->columns.size(), 3u);
  ASSERT_EQ(res->columns[0].size(), res->num_rows);
  ASSERT_EQ(res->columns[1].size(), res->num_rows);
  ASSERT_EQ(res->columns[2].size(), res->num_rows);
  // Row alignment: b = a+1, c = 2a, d = -a must hold row-wise, which pins
  // all three projections to the same base tuple.
  for (std::size_t i = 0; i < res->num_rows; ++i) {
    const std::int64_t a = res->columns[0][i] - 1;
    EXPECT_EQ(res->columns[1][i], 2 * a);
    EXPECT_EQ(res->columns[2][i], -a);
    EXPECT_TRUE(p.Matches(a));
  }
}

TEST_F(SidewaysTest, MultisetMatchesRowOracle) {
  Rng rng(12);
  for (int q = 0; q < 80; ++q) {
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(1000));
    const auto p = Pred::Between(lo, lo + 50);
    auto res = cracker_->SelectProject(p, {"c"});
    ASSERT_TRUE(res.ok());
    std::multiset<std::int64_t> got(res->columns[0].begin(), res->columns[0].end());
    std::multiset<std::int64_t> expect;
    for (std::size_t i = 0; i < kN; ++i) {
      if (p.Matches(head_[i])) expect.insert(c_[i]);
    }
    ASSERT_EQ(got, expect) << "query " << q;
  }
  EXPECT_TRUE(cracker_->Validate());
}

TEST_F(SidewaysTest, MapsCreatedLazilyAndAligned) {
  EXPECT_EQ(cracker_->num_live_maps(), 0u);
  ASSERT_TRUE(cracker_->SelectProject(Pred::Between(1, 500), {"b"}).ok());
  EXPECT_EQ(cracker_->num_live_maps(), 1u);
  ASSERT_TRUE(cracker_->SelectProject(Pred::Between(200, 300), {"b"}).ok());
  ASSERT_TRUE(cracker_->SelectProject(Pred::Between(400, 600), {"b"}).ok());
  EXPECT_EQ(cracker_->stats().maps_created, 1u);
  // A late-joining map replays the whole tape to catch up.
  const std::size_t replays_before = cracker_->stats().alignment_replays;
  auto res = cracker_->SelectProject(Pred::Between(100, 150), {"c"});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(cracker_->num_live_maps(), 2u);
  // 4 tape entries total (3 old + this one); the fresh map replays all 4.
  EXPECT_EQ(cracker_->stats().alignment_replays - replays_before, 4u);
  EXPECT_TRUE(cracker_->Validate());
}

TEST_F(SidewaysTest, SelectSumMatchesOracle) {
  const auto p = Pred::Between(250, 750);
  auto sum = cracker_->SelectSum(p, "c");
  ASSERT_TRUE(sum.ok());
  long double expect = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    if (p.Matches(head_[i])) expect += c_[i];
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(*sum), static_cast<double>(expect));
}

TEST_F(SidewaysTest, UnknownTailIsNotFound) {
  auto res = cracker_->SelectProject(Pred::Between(1, 2), {"nope"});
  EXPECT_TRUE(res.status().IsNotFound());
  EXPECT_TRUE(cracker_->SelectSum(Pred::Between(1, 2), "nope").status().IsNotFound());
}

TEST_F(SidewaysTest, EmptyProjectionListRejected) {
  EXPECT_TRUE(cracker_->SelectProject(Pred::Between(1, 2), {})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SidewaysTest, MismatchedTailLengthRejected) {
  // A tail must be a column of the cracker's table, and the table refuses a
  // column whose length disagrees with its rows.
  const std::vector<std::int64_t> short_tail(10, 0);
  EXPECT_TRUE(
      fx_->table.AddColumn<std::int64_t>("short", short_tail).IsInvalidArgument());
  EXPECT_TRUE(cracker_->AddTailColumn("short").IsNotFound());
  EXPECT_TRUE(cracker_->AddTailColumn("b").IsAlreadyExists());
  EXPECT_TRUE(cracker_->AddTailColumn("a").IsInvalidArgument());  // the head
}

TEST(SidewaysBudgetTest, EvictsLruUnderPressure) {
  const auto head = RandomValues(1000, 100, 21);
  const auto t1 = RandomValues(1000, 100, 22);
  const auto t2 = RandomValues(1000, 100, 23);
  const auto t3 = RandomValues(1000, 100, 24);
  // Budget fits exactly two maps (each 1000 rows of head + tail + rid).
  CrackerOverTable fx({{"a", head}, {"t1", t1}, {"t2", t2}, {"t3", t3}},
                      {.storage_budget_bytes = 2 * 1000 * Map::kBytesPerRow});
  Cracker& cracker = *fx.cracker;
  ASSERT_TRUE(cracker.SelectProject(Pred::Between(10, 20), {"t1"}).ok());
  ASSERT_TRUE(cracker.SelectProject(Pred::Between(10, 20), {"t2"}).ok());
  EXPECT_EQ(cracker.num_live_maps(), 2u);
  // Third map forces eviction of t1 (least recently used).
  ASSERT_TRUE(cracker.SelectProject(Pred::Between(10, 20), {"t3"}).ok());
  EXPECT_EQ(cracker.num_live_maps(), 2u);
  EXPECT_EQ(cracker.stats().maps_evicted, 1u);
  // Evicted map rebuilds on demand and still answers correctly.
  auto res = cracker.SelectProject(Pred::Between(10, 20), {"t1"});
  ASSERT_TRUE(res.ok());
  std::size_t expect = 0;
  for (const auto v : head) expect += Pred::Between(10, 20).Matches(v) ? 1 : 0;
  EXPECT_EQ(res->num_rows, expect);
  EXPECT_EQ(cracker.stats().maps_evicted, 2u);
  EXPECT_TRUE(cracker.Validate());
}

TEST(SidewaysBudgetTest, QueryWiderThanBudgetFails) {
  const auto head = RandomValues(1000, 100, 25);
  const auto t1 = RandomValues(1000, 100, 26);
  const auto t2 = RandomValues(1000, 100, 27);
  CrackerOverTable fx({{"a", head}, {"t1", t1}, {"t2", t2}},
                      {.storage_budget_bytes = 1000 * Map::kBytesPerRow});
  Cracker& cracker = *fx.cracker;
  auto res = cracker.SelectProject(Pred::Between(10, 20), {"t1", "t2"});
  EXPECT_TRUE(res.status().IsResourceExhausted());
  // Single-map queries still work.
  EXPECT_TRUE(cracker.SelectProject(Pred::Between(10, 20), {"t1"}).ok());
}

TEST(SidewaysBudgetTest, BudgetSmallerThanOneMapFails) {
  const auto head = RandomValues(100, 10, 28);
  const auto t1 = RandomValues(100, 10, 29);
  CrackerOverTable fx({{"a", head}, {"t1", t1}}, {.storage_budget_bytes = 8});
  Cracker& cracker = *fx.cracker;
  EXPECT_TRUE(cracker.SelectProject(Pred::Between(1, 5), {"t1"})
                  .status()
                  .IsResourceExhausted());
}

TEST(SidewaysAlignmentTest, EagerAlignmentKeepsAllMapsCurrent) {
  const auto head = RandomValues(1000, 200, 31);
  const auto t1 = RandomValues(1000, 200, 32);
  const auto t2 = RandomValues(1000, 200, 33);
  CrackerOverTable fx({{"a", head}, {"t1", t1}, {"t2", t2}}, {.eager_alignment = true});
  Cracker& cracker = *fx.cracker;
  ASSERT_TRUE(cracker.SelectProject(Pred::Between(10, 50), {"t1"}).ok());
  ASSERT_TRUE(cracker.SelectProject(Pred::Between(60, 90), {"t2"}).ok());
  // Under eager alignment both maps have applied the full tape, so a mixed
  // projection replays nothing new.
  const std::size_t replays_before = cracker.stats().alignment_replays;
  ASSERT_TRUE(cracker.SelectProject(Pred::Between(100, 140), {"t1", "t2"}).ok());
  // Only the new tape entry for each map (2 replays), nothing historical.
  EXPECT_EQ(cracker.stats().alignment_replays - replays_before, 2u);
}

TEST(SidewaysAlignmentTest, InterleavedProjectionSetsStayConsistent) {
  const std::size_t n = 2000;
  const auto head = RandomValues(n, 400, 34);
  std::vector<std::int64_t> b(n);
  std::vector<std::int64_t> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = head[i] * 10;
    c[i] = head[i] * 100;
  }
  CrackerOverTable fx({{"a", head}, {"b", b}, {"c", c}});
  Cracker& cracker = *fx.cracker;
  Rng rng(35);
  for (int q = 0; q < 120; ++q) {
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(400));
    const auto p = Pred::Between(lo, lo + 25);
    std::vector<std::string> proj;
    switch (rng.NextBounded(3)) {
      case 0: proj = {"b"}; break;
      case 1: proj = {"c"}; break;
      default: proj = {"b", "c"}; break;
    }
    auto res = cracker.SelectProject(p, proj);
    ASSERT_TRUE(res.ok());
    if (proj.size() == 2) {
      for (std::size_t i = 0; i < res->num_rows; ++i) {
        ASSERT_EQ(res->columns[0][i] * 10, res->columns[1][i]) << "q" << q;
      }
    }
  }
  EXPECT_TRUE(cracker.Validate());
}

}  // namespace
}  // namespace aidx
