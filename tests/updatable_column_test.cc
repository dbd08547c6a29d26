// Updates under cracking: differential tests against an immediately-applied
// model across all three merge policies, plus ripple mechanics checks.
#include "update/updatable_column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "index/scan.h"
#include "util/rng.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;
using Column = UpdatableCrackerColumn<std::int64_t>;

std::vector<std::int64_t> RandomValues(std::size_t n, std::int64_t domain,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(domain));
  return v;
}

TEST(UpdatableColumnTest, InsertVisibleAfterMerge) {
  const auto base = RandomValues(1000, 100, 1);
  Column col(base);
  const std::size_t before = col.Count(Pred::Between(40, 60));
  col.Insert(50);
  col.Insert(50);
  EXPECT_EQ(col.num_pending_inserts(), 2u);
  EXPECT_EQ(col.Count(Pred::Between(40, 60)), before + 2);
  EXPECT_EQ(col.num_pending_inserts(), 0u);  // ripple merged them
  EXPECT_TRUE(col.Validate());
}

TEST(UpdatableColumnTest, DeleteRemovesMergedTuple) {
  const std::vector<std::int64_t> base = {10, 20, 30, 40, 50};
  Column col(base);
  EXPECT_EQ(col.Count(Pred::Between(10, 50)), 5u);
  EXPECT_TRUE(col.Delete(30, 2));  // row id 2 holds value 30
  EXPECT_EQ(col.Count(Pred::Between(10, 50)), 4u);
  EXPECT_EQ(col.Count(Pred::Between(30, 30)), 0u);
  EXPECT_TRUE(col.Validate());
}

TEST(UpdatableColumnTest, InsertThenDeleteCancelsWhilePending) {
  const auto base = RandomValues(100, 50, 2);
  Column col(base);
  const row_id_t rid = col.Insert(25);
  EXPECT_TRUE(col.Delete(25, rid));
  EXPECT_EQ(col.num_pending_inserts(), 0u);
  EXPECT_EQ(col.num_pending_deletes(), 0u);
  EXPECT_EQ(col.update_stats().deletes_cancelled, 1u);
  EXPECT_EQ(col.Count(Pred::Between(25, 25)),
            ScanCount<std::int64_t>(base, Pred::Between(25, 25)));
}

TEST(UpdatableColumnTest, DoubleDeleteRejected) {
  const std::vector<std::int64_t> base = {10, 20, 30};
  Column col(base);
  EXPECT_TRUE(col.Delete(20, 1));
  EXPECT_FALSE(col.Delete(20, 1));
  EXPECT_EQ(col.Count(Pred::All()), 2u);
}

// Without row ids every pending delete is value-addressed, so a delete
// succeeds while the live occurrences outnumber the pending claims, and is
// refused once every duplicate is claimed.
TEST(UpdatableColumnTest, ValueDeleteRefusedOnceEveryDuplicateIsClaimed) {
  for (const std::size_t min_piece : {std::size_t{0}, std::size_t{8}}) {
    std::vector<std::int64_t> base = RandomValues(200, 50, 9);
    base.insert(base.end(), {1000, 1000, 1000});
    Column col(base, {.crack = {.with_row_ids = false, .min_piece_size = min_piece}});
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(col.DeleteValue(1000)) << i;
    EXPECT_FALSE(col.DeleteValue(1000));
    EXPECT_FALSE(col.DeleteValue(999));
    EXPECT_EQ(col.Count(Pred::Between(1000, 1000)), 0u);
    EXPECT_FALSE(col.DeleteValue(1000));
    EXPECT_TRUE(col.Validate());
  }
}

TEST(UpdatableColumnTest, RippleOnlyMergesQueriedRange) {
  const auto base = RandomValues(2000, 1000, 3);
  Column col(base, {.policy = MergePolicy::kRipple});
  col.Count(Pred::Between(0, 999));  // crack broadly first
  col.Insert(100);
  col.Insert(500);
  col.Insert(900);
  col.Count(Pred::Between(450, 550));  // touches only value 500
  EXPECT_EQ(col.num_pending_inserts(), 2u);
  EXPECT_EQ(col.update_stats().inserts_merged, 1u);
  EXPECT_TRUE(col.Validate());
}

TEST(UpdatableColumnTest, CompleteMergesEverythingAtOnce) {
  const auto base = RandomValues(2000, 1000, 4);
  Column col(base, {.policy = MergePolicy::kComplete});
  col.Insert(100);
  col.Insert(500);
  col.Insert(900);
  col.Count(Pred::Between(450, 550));
  EXPECT_EQ(col.num_pending_inserts(), 0u);
  EXPECT_EQ(col.update_stats().inserts_merged, 3u);
  EXPECT_TRUE(col.Validate());
}

TEST(UpdatableColumnTest, GradualDrainsWithBudget) {
  const auto base = RandomValues(2000, 1000, 5);
  Column col(base, {.policy = MergePolicy::kGradual, .gradual_budget = 2});
  for (int i = 0; i < 10; ++i) col.Insert(50);  // all far from queried range
  // Each query merges up to 2 extra pending tuples.
  col.Count(Pred::Between(900, 950));
  EXPECT_EQ(col.num_pending_inserts(), 8u);
  col.Count(Pred::Between(900, 950));
  EXPECT_EQ(col.num_pending_inserts(), 6u);
  for (int i = 0; i < 3; ++i) col.Count(Pred::Between(900, 950));
  EXPECT_EQ(col.num_pending_inserts(), 0u);
  EXPECT_TRUE(col.Validate());
}

TEST(UpdatableColumnTest, RippleMovesFarFewerElementsThanColumnSize) {
  const auto base = RandomValues(50000, 100000, 6);
  Column col(base);
  // Crack into ~50 pieces first.
  Rng rng(7);
  for (int q = 0; q < 25; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(100000));
    col.Count(Pred::Between(a, a + 2000));
  }
  const std::size_t moves_before = col.update_stats().ripple_element_moves;
  col.Insert(50000);
  col.Count(Pred::Between(49000, 51000));
  const std::size_t moves = col.update_stats().ripple_element_moves - moves_before;
  // One move per downstream piece boundary, bounded by the piece count.
  EXPECT_LE(moves, col.index().num_pieces());
  EXPECT_TRUE(col.Validate());
}

// The ripple cascade's element moves for a fixed op stream, pinned: at
// most one move per non-empty piece downstream of each merged tuple. A
// delete saves a move when its victim is its piece's last element, so the
// count depends on the layout inside pieces; the crack kernel is pinned to
// the branchy sweep, which every host runs the same way. The figure is
// what the cascade made when it walked the cuts twice per tuple.
TEST(UpdatableColumnTest, RippleMovesForAFixedStreamArePinned) {
  const auto base = RandomValues(20000, 10000, 41);
  Column::Options options;
  options.crack.kernel = CrackKernel::kBranchy;
  Column col(base, options);
  Rng rng(43);
  std::vector<std::int64_t> model = base;
  for (int q = 0; q < 200; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(10000));
    col.Count(Pred::Between(a, a + 50));
  }
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t dice = rng.NextBounded(4);
    if (dice == 0) {
      const auto v = static_cast<std::int64_t>(rng.NextBounded(10000));
      col.Insert(v);
      model.push_back(v);
    } else if (dice == 1) {
      const std::size_t at = rng.NextBounded(model.size());
      ASSERT_TRUE(col.DeleteValue(model[at]));
      model[at] = model.back();
      model.pop_back();
    } else {
      const auto a = static_cast<std::int64_t>(rng.NextBounded(10000));
      const auto p = Pred::Between(a, a + 100);
      ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(model, p));
    }
  }
  ASSERT_EQ(col.Count(Pred::All()), model.size());
  EXPECT_EQ(col.num_pending_inserts() + col.num_pending_deletes(), 0u);
  EXPECT_EQ(col.update_stats().ripple_element_moves, 1725795u);
  EXPECT_TRUE(col.Validate());
}

struct PolicyParam {
  MergePolicy policy;
  std::size_t budget;
  const char* name;

  friend void PrintTo(const PolicyParam& p, std::ostream* os) { *os << p.name; }
};

constexpr PolicyParam kPolicyParams[] = {
    {MergePolicy::kRipple, 0, "MRI"},
    {MergePolicy::kComplete, 0, "MCI"},
    {MergePolicy::kGradual, 4, "MGI4"},
    {MergePolicy::kGradual, 64, "MGI64"},
};

class UpdatePolicyTest : public ::testing::TestWithParam<PolicyParam> {};

// The central property: under any interleaving of queries, inserts, and
// deletes, every query answers exactly like a model that applies updates
// immediately.
TEST_P(UpdatePolicyTest, DifferentialAgainstImmediateModel) {
  const auto& param = GetParam();
  const std::int64_t kDomain = 500;
  const auto base = RandomValues(3000, kDomain, 10 + param.budget);
  Column col(base, {.policy = param.policy, .gradual_budget = param.budget});

  // Model: rid -> value for live tuples.
  std::map<row_id_t, std::int64_t> model;
  for (std::size_t i = 0; i < base.size(); ++i) {
    model[static_cast<row_id_t>(i)] = base[i];
  }
  Rng rng(11);
  for (int step = 0; step < 1500; ++step) {
    const auto dice = rng.NextBounded(10);
    if (dice < 3) {  // insert
      const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
      const row_id_t rid = col.Insert(v);
      model[rid] = v;
    } else if (dice < 5 && !model.empty()) {  // delete a random live tuple
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(model.size())));
      ASSERT_TRUE(col.Delete(it->second, it->first));
      model.erase(it);
    } else {  // range query
      const std::int64_t a = rng.NextInRange(-5, kDomain + 5);
      const std::int64_t w = rng.NextInRange(0, 60);
      const auto p = Pred::Between(a, a + w);
      std::size_t expect = 0;
      for (const auto& [rid, v] : model) expect += p.Matches(v) ? 1 : 0;
      ASSERT_EQ(col.Count(p), expect) << param.name << " step " << step;
    }
  }
  EXPECT_TRUE(col.Validate());
  // Drain and do a final full check.
  ASSERT_EQ(col.Count(Pred::All()), model.size());
  EXPECT_TRUE(col.Validate());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, UpdatePolicyTest,
    ::testing::ValuesIn(kPolicyParams),
    [](const auto& info) { return info.param.name; });

TEST(UpdatableColumnTest, SumReflectsUpdates) {
  const std::vector<std::int64_t> base = {1, 2, 3, 4, 5};
  Column col(base);
  col.Insert(10);
  col.Delete(2, 1);
  EXPECT_DOUBLE_EQ(static_cast<double>(col.Sum(Pred::All())), 1 + 3 + 4 + 5 + 10.0);
}

TEST(UpdatableColumnTest, RowIdValueTandemSurvivesUpdates) {
  const auto base = RandomValues(1000, 200, 13);
  Column col(base);
  Rng rng(14);
  std::map<row_id_t, std::int64_t> model;
  for (std::size_t i = 0; i < base.size(); ++i) {
    model[static_cast<row_id_t>(i)] = base[i];
  }
  for (int step = 0; step < 200; ++step) {
    const auto v = static_cast<std::int64_t>(rng.NextBounded(200));
    model[col.Insert(v)] = v;
    const auto a = static_cast<std::int64_t>(rng.NextBounded(200));
    col.Count(Pred::Between(a, a + 20));
  }
  col.Count(Pred::All());
  // Every stored (value, rid) pair must match the model.
  const auto values = col.values();
  const auto rids = col.row_ids();
  ASSERT_EQ(values.size(), model.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto it = model.find(rids[i]);
    ASSERT_NE(it, model.end());
    ASSERT_EQ(values[i], it->second);
  }
}

TEST(UpdatableColumnTest, UpdatesOnEmptyBase) {
  Column col(std::span<const std::int64_t>{});
  col.Insert(5);
  col.Insert(3);
  EXPECT_EQ(col.Count(Pred::All()), 2u);
  EXPECT_EQ(col.Count(Pred::Between(4, 9)), 1u);
  EXPECT_TRUE(col.Validate());
}

TEST(UpdatableColumnTest, InsertIntoEveryPieceOfAHeavilyCrackedColumn) {
  const auto base = RandomValues(5000, 1000, 15);
  Column col(base);
  for (std::int64_t a = 0; a < 1000; a += 50) {
    col.Count(Pred::Between(a, a + 25));  // ~40 pieces
  }
  const std::size_t pieces = col.index().num_pieces();
  EXPECT_GT(pieces, 20u);
  std::size_t expect_total = base.size();
  for (std::int64_t v = 0; v < 1000; v += 10) {
    col.Insert(v);
    ++expect_total;
  }
  EXPECT_EQ(col.Count(Pred::All()), expect_total);
  EXPECT_TRUE(col.Validate());
}

}  // namespace
}  // namespace aidx
