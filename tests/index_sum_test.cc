// Differential suite for Sums answered from the cracker index's cached
// piece sums (CrackerIndex::SumPieces via CrackerColumn::SumIndexed):
// every index-answered Sum must equal the streamed sum over the same
// positions, and the cache must stay exact (ValidatePieces) through every
// path that edits the array or the cuts — stochastic and thresholded
// selects, MCI/MGI/MRI update merges, Clone, Clear, radix seeding and
// organizer edits — and known through cracks of summed pieces. Values
// include the integer type's extremes so the 128-bit sums are exercised
// at their widest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/cracker_column.h"
#include "core/organizer.h"
#include "index/scan.h"
#include "update/updatable_column.h"
#include "util/rng.h"

namespace aidx {
namespace {

/// Column length: several cores above the index-sum threshold fit in it.
constexpr std::size_t kRows = 6 * kIndexedSumMinCore;

/// Uniform values in [-domain, domain), one in twenty at T's min or max.
template <typename T>
std::vector<T> ValuesWithExtremes(std::size_t n, std::int64_t domain, Rng* rng) {
  std::vector<T> out(n);
  for (T& v : out) {
    const std::uint64_t pick = rng->NextBounded(40);
    if (pick == 0) {
      v = std::numeric_limits<T>::min();
    } else if (pick == 1) {
      v = std::numeric_limits<T>::max();
    } else {
      v = static_cast<T>(static_cast<std::int64_t>(rng->NextBounded(2 * domain)) - domain);
    }
  }
  return out;
}

/// A random range over [-domain, domain], wide enough that most cores
/// exceed the threshold; one in eight is open on a side (or both), so the
/// extremes and the tail piece take part.
template <typename T>
RangePredicate<T> RandomRange(std::int64_t domain, Rng* rng) {
  const auto at = [&] {
    return static_cast<T>(static_cast<std::int64_t>(rng->NextBounded(2 * domain + 1)) -
                          domain);
  };
  T lo = at();
  T hi = at();
  if (hi < lo) std::swap(lo, hi);
  switch (rng->NextBounded(16)) {
    case 0:
      return RangePredicate<T>::AtMost(hi);
    case 1:
      return RangePredicate<T>::GreaterThan(lo);
    case 2:
      return RangePredicate<T>::All();
    case 3:
      return RangePredicate<T>::HalfOpen(lo, hi);
    default:
      return RangePredicate<T>::Between(lo, hi);
  }
}

template <typename T>
Int128 OracleSum(std::span<const T> values, const RangePredicate<T>& pred) {
  Int128 sum = 0;
  for (const T v : values) {
    if (pred.Matches(v)) sum += v;
  }
  return sum;
}

template <typename T>
class IndexSumTest : public ::testing::Test {};
using IntegerTypes = ::testing::Types<std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(IndexSumTest, IntegerTypes);

TYPED_TEST(IndexSumTest, IndexSumEqualsStreamThroughRandomSelects) {
  using T = TypeParam;
  const std::int64_t domain = 1 << 15;
  for (const CrackerColumnOptions options :
       {CrackerColumnOptions{.with_row_ids = false},
        CrackerColumnOptions{.with_row_ids = false, .stochastic_threshold = 512},
        CrackerColumnOptions{.with_row_ids = true, .min_piece_size = 64,
                             .stochastic_threshold = 2048}}) {
    Rng rng(91);
    const std::vector<T> base = ValuesWithExtremes<T>(kRows, domain, &rng);
    CrackerColumn<T> col(base, options);
    std::size_t long_cores = 0;
    for (int q = 0; q < 300; ++q) {
      const RangePredicate<T> pred = RandomRange<T>(domain, &rng);
      const CrackSelect sel = col.Select(pred);
      long_cores += sel.core.size() >= kIndexedSumMinCore ? 1 : 0;
      ASSERT_EQ(col.SumIndexed(sel, pred), col.SumFrom(sel, pred)) << "query " << q;
      ASSERT_EQ(col.SumPartial(pred), OracleSum<T>(base, pred)) << "query " << q;
      if (q % 50 == 0) {
        ASSERT_TRUE(col.ValidatePieces()) << "query " << q;
      }
    }
    EXPECT_GT(long_cores, 100u);
    EXPECT_TRUE(col.ValidatePieces());
  }
}

TYPED_TEST(IndexSumTest, CachedSumsSurviveEveryMergePolicy) {
  using T = TypeParam;
  const std::int64_t domain = 1 << 12;
  for (const MergePolicy policy :
       {MergePolicy::kComplete, MergePolicy::kGradual, MergePolicy::kRipple}) {
    for (const bool with_rids : {false, true}) {
      Rng rng(17 + static_cast<int>(policy));
      std::vector<T> oracle = ValuesWithExtremes<T>(kRows, domain, &rng);
      UpdatableCrackerColumn<T> col(
          oracle, {.policy = policy,
                   .gradual_budget = 16,
                   .crack = {.with_row_ids = with_rids, .stochastic_threshold = 1024}});
      for (int step = 0; step < 400; ++step) {
        const std::uint64_t op = rng.NextBounded(4);
        if (op == 0) {
          const T v = ValuesWithExtremes<T>(1, domain, &rng)[0];
          col.Insert(v);
          oracle.push_back(v);
        } else if (op == 1) {
          const T v = oracle[rng.NextBounded(oracle.size())];
          ASSERT_TRUE(col.DeleteValue(v));
          oracle.erase(std::find(oracle.begin(), oracle.end(), v));
        } else {
          const RangePredicate<T> pred = RandomRange<T>(domain, &rng);
          ASSERT_EQ(col.SumPartial(pred), OracleSum<T>(oracle, pred))
              << MergePolicyName(policy) << " step " << step;
        }
        if (step % 40 == 0) {
          ASSERT_TRUE(col.Validate()) << "step " << step;
        }
      }
      col.MergePendingFor(RangePredicate<T>::All());
      EXPECT_TRUE(col.Validate());
      EXPECT_EQ(col.SumPartial(RangePredicate<T>::All()),
                OracleSum<T>(oracle, RangePredicate<T>::All()));
    }
  }
}

// A clone carries the cuts without the sums and fills them afresh; Clear
// erases every cut and sum, leaving one piece.
TYPED_TEST(IndexSumTest, ClonedAndErasedIndexesSumExactly) {
  using T = TypeParam;
  const std::int64_t domain = 1 << 15;
  Rng rng(5);
  const std::vector<T> base = ValuesWithExtremes<T>(kRows, domain, &rng);
  CrackerColumn<T> col(base, {.with_row_ids = false});
  for (int q = 0; q < 200; ++q) col.SumPartial(RandomRange<T>(domain, &rng));
  ASSERT_TRUE(col.ValidatePieces());
  CrackerIndex<T> copy = col.index().Clone();
  ASSERT_EQ(copy.num_cuts(), col.index().num_cuts());
  ASSERT_TRUE(copy.ValidateOver(col.values()));
  std::vector<std::size_t> bounds{0};
  copy.VisitCuts([&](const Cut<T>&, const std::size_t& pos) { bounds.push_back(pos); });
  bounds.push_back(col.size());
  for (int pass = 0; pass < 2; ++pass) {
    for (int q = 0; q < 200; ++q) {
      std::size_t b = bounds[rng.NextBounded(bounds.size())];
      std::size_t e = bounds[rng.NextBounded(bounds.size())];
      if (e < b) std::swap(b, e);
      ASSERT_EQ(copy.SumPieces({b, e}, col.values()),
                SumValues<T>(col.values().subspan(b, e - b)));
    }
    ASSERT_TRUE(copy.ValidateOver(col.values()));
  }
  copy.Clear();
  ASSERT_EQ(copy.num_pieces(), 1u);
  ASSERT_TRUE(copy.ValidateOver(col.values()));
  ASSERT_EQ(copy.SumPieces({0, col.size()}, col.values()), SumValues<T>(col.values()));
  ASSERT_TRUE(copy.ValidateOver(col.values()));
}

/// A CrackerColumn whose index a test may sum against other values.
template <typename T>
class SummableColumn : public CrackerColumn<T> {
 public:
  using CrackerColumn<T>::CrackerColumn;
  using CrackerColumn<T>::mutable_index;
};

// Counts crack pieces whose sums earlier Sums made known: crack-in-two,
// crack-in-three, stochastic pre-cracks and thresholded edges must leave
// every sum inside the summed ranges known and exact. Known, not only
// exact: summing the core over an array of other values must still give
// the true core sum, which it would not if any sum in it were refilled.
TYPED_TEST(IndexSumTest, CracksOfSummedPiecesKeepTheirSumsKnown) {
  using T = TypeParam;
  const std::int64_t domain = 1 << 15;
  for (const CrackerColumnOptions options :
       {CrackerColumnOptions{.with_row_ids = false},
        CrackerColumnOptions{.with_row_ids = false, .stochastic_threshold = 256},
        CrackerColumnOptions{.with_row_ids = true, .min_piece_size = 64}}) {
    Rng rng(43);
    const std::vector<T> base = ValuesWithExtremes<T>(kRows, domain, &rng);
    const std::vector<T> other(base.size(), T{1});
    SummableColumn<T> col(base, options);
    // Uniform in [from, to].
    const auto draw = [&](std::int64_t from, std::int64_t to) {
      return from + static_cast<std::int64_t>(
                        rng.NextBounded(static_cast<std::uint64_t>(to - from) + 1));
    };
    // Value ranges whose Sums were answered from the index; one in four
    // reaches T's min or max.
    std::vector<std::pair<std::int64_t, std::int64_t>> summed;
    const auto sum = [&] {
      std::int64_t lo = draw(-domain, -1);
      std::int64_t hi = draw(lo, lo + domain);
      if (rng.NextBounded(4) == 0) lo = std::numeric_limits<T>::min();
      if (rng.NextBounded(4) == 0) hi = std::numeric_limits<T>::max();
      const auto pred = RangePredicate<T>::Between(static_cast<T>(lo), static_cast<T>(hi));
      ASSERT_EQ(col.SumIndexed(col.Select(pred), pred), OracleSum<T>(base, pred));
      summed.emplace_back(lo, hi);
    };
    for (int q = 0; q < 20; ++q) ASSERT_NO_FATAL_FAILURE(sum());
    const CrackerStats before = col.stats();
    int edges = 0;
    for (int step = 0; step < 300; ++step) {
      if (step % 10 == 9) {
        ASSERT_NO_FATAL_FAILURE(sum());
      } else {
        // A Count whose bounds fall inside a summed range, mostly within
        // 400 of each other, so some land in one piece.
        const auto [lo, hi] = summed[rng.NextBounded(summed.size())];
        const std::int64_t to = std::min(hi, domain);
        std::int64_t a = draw(std::max(lo, -domain), to);
        std::int64_t b = draw(a, std::min(to, a + 400));
        if (lo < -domain && rng.NextBounded(4) == 0) a = lo;
        if (hi > domain && rng.NextBounded(4) == 0) b = hi;
        const auto pred = RangePredicate<T>::Between(static_cast<T>(a), static_cast<T>(b));
        const CrackSelect sel = col.Select(pred);
        edges += sel.num_edges;
        ASSERT_EQ(col.CountFrom(sel, pred), ScanCount<T>(base, pred)) << "step " << step;
        ASSERT_EQ(col.mutable_index().SumPieces(sel.core, other),
                  SumValues<T>(col.values().subspan(sel.core.begin, sel.core.size())))
            << "step " << step;
      }
      ASSERT_TRUE(col.ValidatePieces()) << "step " << step;
    }
    const CrackerStats& after = col.stats();
    EXPECT_GT(after.num_crack_in_two, before.num_crack_in_two);
    if (options.stochastic_threshold != 0) {
      EXPECT_GT(after.num_stochastic_cracks, before.num_stochastic_cracks);
    } else if (options.min_piece_size != 0) {
      EXPECT_GT(edges, 0);
    } else {
      EXPECT_GT(after.num_crack_in_three, before.num_crack_in_three);
    }
  }
}

TYPED_TEST(IndexSumTest, RadixSeedingDropsTheWholeColumnSum) {
  using T = TypeParam;
  const std::int64_t domain = 1 << 15;
  Rng rng(23);
  const std::vector<T> base = ValuesWithExtremes<T>(kRows, domain, &rng);
  CrackerColumn<T> col(base, {.with_row_ids = true});
  // An unbounded Sum cuts nothing and caches the one piece's sum.
  ASSERT_EQ(col.SumPartial(RangePredicate<T>::All()),
            OracleSum<T>(base, RangePredicate<T>::All()));
  col.SeedRadixClusters(4);
  ASSERT_TRUE(col.ValidatePieces());
  for (int q = 0; q < 100; ++q) {
    const RangePredicate<T> pred = RandomRange<T>(domain, &rng);
    ASSERT_EQ(col.SumPartial(pred), OracleSum<T>(base, pred)) << "query " << q;
  }
  EXPECT_TRUE(col.ValidatePieces());
}

TYPED_TEST(IndexSumTest, OrganizerEditsKeepTheIndexValid) {
  using T = TypeParam;
  const std::int64_t domain = 1 << 12;
  for (const OrganizeMode mode :
       {OrganizeMode::kCrack, OrganizeMode::kSort, OrganizeMode::kRadix}) {
    Rng rng(31);
    std::vector<T> oracle = ValuesWithExtremes<T>(kRows, domain, &rng);
    SegmentOrganizer<T> org(oracle, {}, {.mode = mode, .with_row_ids = false});
    for (int step = 0; step < 60; ++step) {
      const RangePredicate<T> pred = RandomRange<T>(domain, &rng);
      const PositionRange range = org.Resolve(pred);
      ASSERT_EQ(SumValues<T>(org.values().subspan(range.begin, range.size())),
                OracleSum<T>(oracle, pred));
      const T v = ValuesWithExtremes<T>(1, domain, &rng)[0];
      if (step % 2 == 0) {
        org.Append(std::span<const T>(&v, 1), {});
        oracle.push_back(v);
      } else {
        const T victim = oracle[rng.NextBounded(oracle.size())];
        ASSERT_TRUE(org.EraseOne(victim));
        oracle.erase(std::find(oracle.begin(), oracle.end(), victim));
      }
      ASSERT_TRUE(org.Validate()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace aidx
