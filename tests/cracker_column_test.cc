// CrackerColumn correctness: oracle-differential property tests across
// configurations (row ids, piece-size thresholds, stochastic cracking),
// data distributions, and predicate shapes; plus invariant sweeps.
#include "core/cracker_column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "index/scan.h"
#include "util/rng.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;
using Column = CrackerColumn<std::int64_t>;

std::vector<std::int64_t> RandomValues(std::size_t n, std::int64_t domain,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(domain));
  return v;
}

TEST(CrackerColumnTest, FirstSelectCracksAndAnswers) {
  const std::vector<std::int64_t> base = {5, 2, 8, 1, 9, 3, 7, 6, 4, 0};
  Column col(base);
  const auto sel = col.Select(Pred::Between(3, 6));
  EXPECT_EQ(sel.num_edges, 0);
  EXPECT_EQ(sel.core.size(), 4u);  // 3, 4, 5, 6
  EXPECT_TRUE(col.ValidatePieces());
  EXPECT_EQ(col.stats().num_crack_in_three, 1u);  // both bounds in one piece
}

TEST(CrackerColumnTest, CountMatchesScanOracle) {
  const auto base = RandomValues(5000, 1000, 42);
  Column col(base);
  for (std::int64_t a = 0; a < 1000; a += 37) {
    const auto p = Pred::HalfOpen(a, a + 53);
    ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(base, p)) << p.ToString();
  }
}

TEST(CrackerColumnTest, RepeatedIdenticalQueriesStable) {
  const auto base = RandomValues(2000, 500, 7);
  Column col(base);
  const auto p = Pred::Between(100, 200);
  const std::size_t first = col.Count(p);
  const std::size_t cracks_after_first = col.stats().num_crack_in_two +
                                         col.stats().num_crack_in_three;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(col.Count(p), first);
  // No further physical reorganization for an already-realized range.
  EXPECT_EQ(col.stats().num_crack_in_two + col.stats().num_crack_in_three,
            cracks_after_first);
}

TEST(CrackerColumnTest, SumMatchesScan) {
  const auto base = RandomValues(3000, 300, 11);
  Column col(base);
  const auto p = Pred::Between(50, 150);
  EXPECT_DOUBLE_EQ(static_cast<double>(col.Sum(p)),
                   static_cast<double>(ScanSum<std::int64_t>(base, p)));
}

TEST(CrackerColumnTest, MaterializeValuesMatchesScanMultiset) {
  const auto base = RandomValues(2000, 100, 13);
  Column col(base);
  const auto p = Pred::Between(20, 60);
  const auto sel = col.Select(p);
  std::vector<std::int64_t> got;
  col.MaterializeValues(sel, p, &got);
  std::vector<std::int64_t> expect;
  ScanValues<std::int64_t>(base, p, &expect);
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
}

TEST(CrackerColumnTest, RowIdsRemainConsistentAfterManyCracks) {
  const auto base = RandomValues(3000, 400, 17);
  Column col(base);
  Rng rng(18);
  for (int q = 0; q < 200; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(400));
    col.Select(Pred::Between(a, a + 20));
  }
  // Every (value, row_id) pair must still map back to the base column.
  const auto values = col.values();
  const auto rids = col.row_ids();
  ASSERT_EQ(values.size(), base.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(values[i], base[rids[i]]) << "at " << i;
  }
}

TEST(CrackerColumnTest, RowIdProjectionMatchesOracle) {
  const auto base = RandomValues(1000, 50, 19);
  Column col(base);
  const auto p = Pred::Between(10, 20);
  const auto sel = col.Select(p);
  std::vector<row_id_t> got;
  col.MaterializeRowIds(sel, p, &got);
  std::vector<row_id_t> expect;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (p.Matches(base[i])) expect.push_back(static_cast<row_id_t>(i));
  }
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
}

TEST(CrackerColumnTest, EmptyColumn) {
  Column col(std::span<const std::int64_t>{});
  EXPECT_EQ(col.Count(Pred::Between(1, 10)), 0u);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(CrackerColumnTest, EmptyPredicate) {
  const auto base = RandomValues(100, 10, 23);
  Column col(base);
  EXPECT_EQ(col.Count(Pred::Between(8, 2)), 0u);
  // Definitely-empty predicates must not crack at all.
  EXPECT_EQ(col.stats().num_crack_in_two, 0u);
  EXPECT_EQ(col.stats().num_crack_in_three, 0u);
}

TEST(CrackerColumnTest, PointQueriesWithDuplicates) {
  std::vector<std::int64_t> base;
  for (int i = 0; i < 50; ++i) {
    base.push_back(5);
    base.push_back(7);
  }
  Column col(base);
  EXPECT_EQ(col.Count(Pred::Between(5, 5)), 50u);
  EXPECT_EQ(col.Count(Pred::Between(7, 7)), 50u);
  EXPECT_EQ(col.Count(Pred::Between(6, 6)), 0u);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(CrackerColumnTest, AllSameValue) {
  std::vector<std::int64_t> base(500, 9);
  Column col(base);
  EXPECT_EQ(col.Count(Pred::Between(9, 9)), 500u);
  EXPECT_EQ(col.Count(Pred::LessThan(9)), 0u);
  EXPECT_EQ(col.Count(Pred::GreaterThan(9)), 0u);
  EXPECT_EQ(col.Count(Pred::All()), 500u);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(CrackerColumnTest, UnboundedSides) {
  const auto base = RandomValues(1000, 100, 29);
  Column col(base);
  EXPECT_EQ(col.Count(Pred::AtMost(50)),
            ScanCount<std::int64_t>(base, Pred::AtMost(50)));
  EXPECT_EQ(col.Count(Pred::AtLeast(50)),
            ScanCount<std::int64_t>(base, Pred::AtLeast(50)));
  EXPECT_EQ(col.Count(Pred::All()), 1000u);
}

TEST(CrackerColumnTest, PiecesShrinkMonotonically) {
  const auto base = RandomValues(10000, 100000, 31);
  Column col(base);
  Rng rng(32);
  std::size_t last_pieces = col.index().num_pieces();
  for (int q = 0; q < 100; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(100000));
    col.Select(Pred::Between(a, a + 1000));
    const std::size_t pieces = col.index().num_pieces();
    ASSERT_GE(pieces, last_pieces);  // cracking only adds structure
    last_pieces = pieces;
  }
  ASSERT_TRUE(col.ValidatePieces());
}

struct ConfigParam {
  bool with_row_ids;
  std::size_t min_piece_size;
  std::size_t stochastic_threshold;
  std::int64_t domain;  // small => heavy duplicates
  const char* name;

  friend void PrintTo(const ConfigParam& p, std::ostream* os) { *os << p.name; }
};

class CrackerColumnConfigTest : public ::testing::TestWithParam<ConfigParam> {};

TEST_P(CrackerColumnConfigTest, OracleDifferentialSweep) {
  const auto& param = GetParam();
  const std::size_t n = 4000;
  const auto base = RandomValues(n, param.domain, 1000 + param.min_piece_size);
  Column col(base, {.with_row_ids = param.with_row_ids,
                    .min_piece_size = param.min_piece_size,
                    .stochastic_threshold = param.stochastic_threshold});
  Rng rng(55);
  for (int q = 0; q < 400; ++q) {
    const std::int64_t a =
        rng.NextInRange(-2, param.domain + 2);
    const std::int64_t width = rng.NextInRange(0, param.domain / 4 + 1);
    Pred p;
    switch (rng.NextBounded(6)) {
      case 0: p = Pred::Between(a, a + width); break;
      case 1: p = Pred::HalfOpen(a, a + width); break;
      case 2: p = Pred{a, BoundKind::kExclusive, a + width, BoundKind::kExclusive}; break;
      case 3: p = Pred::AtLeast(a); break;
      case 4: p = Pred::AtMost(a); break;
      default: p = Pred::Between(a, a); break;
    }
    ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(base, p))
        << "query " << q << ": " << p.ToString();
  }
  EXPECT_TRUE(col.ValidatePieces());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrackerColumnConfigTest,
    ::testing::Values(
        ConfigParam{true, 0, 0, 1000, "rids_alwayscrack"},
        ConfigParam{false, 0, 0, 1000, "norids_alwayscrack"},
        ConfigParam{true, 64, 0, 1000, "threshold64"},
        ConfigParam{true, 1024, 0, 1000, "threshold1k"},
        ConfigParam{true, 0, 256, 1000, "stochastic256"},
        ConfigParam{true, 128, 512, 1000, "threshold_and_stochastic"},
        ConfigParam{true, 0, 0, 5, "heavy_duplicates"},
        ConfigParam{true, 64, 0, 2, "binary_domain_threshold"}),
    [](const auto& info) { return info.param.name; });

TEST(CrackerColumnStochasticTest, RandomCracksHappenOnLargePieces) {
  const auto base = RandomValues(100000, 1000000, 91);
  Column col(base, {.stochastic_threshold = 1000});
  col.Select(Pred::Between(500000, 500100));
  EXPECT_GT(col.stats().num_stochastic_cracks, 0u);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(CrackerColumnStochasticTest, SequentialPatternPieceCountGrows) {
  // Under a strictly sequential pattern, standard cracking leaves one huge
  // suffix piece; stochastic cracking subdivides it.
  const auto base = RandomValues(50000, 1000000, 93);
  Column plain(base);
  Column stochastic(base, {.stochastic_threshold = 4096});
  for (std::int64_t a = 0; a < 900000; a += 30000) {
    plain.Select(Pred::Between(a, a + 1000));
    stochastic.Select(Pred::Between(a, a + 1000));
  }
  EXPECT_GT(stochastic.index().num_pieces(), plain.index().num_pieces());
  EXPECT_TRUE(plain.ValidatePieces());
  EXPECT_TRUE(stochastic.ValidatePieces());
}

TEST(CrackerColumnTest, WorksForInt32AndDouble) {
  const std::vector<std::int32_t> base32 = {5, 2, 8, 1, 9};
  CrackerColumn<std::int32_t> col32(base32);
  EXPECT_EQ(col32.Count(RangePredicate<std::int32_t>::Between(2, 8)), 3u);

  const std::vector<double> based = {0.5, 2.5, 1.5, 3.5};
  CrackerColumn<double> cold(based);
  EXPECT_EQ(cold.Count(RangePredicate<double>::HalfOpen(1.0, 3.0)), 2u);
  EXPECT_TRUE(cold.ValidatePieces());
}

TEST(CrackerColumnTest, ConvergenceReducesTouchedValues) {
  // After many queries the piece map is fine-grained: later queries touch
  // far fewer values than early ones (the adaptive-indexing promise).
  const auto base = RandomValues(100000, 1000000, 101);
  Column col(base);
  Rng rng(102);
  std::size_t touched_first10 = 0;
  std::size_t touched_last10 = 0;
  for (int q = 0; q < 500; ++q) {
    const std::size_t before = col.stats().values_touched;
    const auto a = static_cast<std::int64_t>(rng.NextBounded(990000));
    col.Select(Pred::Between(a, a + 1000));
    const std::size_t delta = col.stats().values_touched - before;
    if (q < 10) touched_first10 += delta;
    if (q >= 490) touched_last10 += delta;
  }
  EXPECT_LT(touched_last10, touched_first10 / 10);
}

}  // namespace
}  // namespace aidx
