#include "core/cracker_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "index/avl_tree.h"
#include "index/scan.h"
#include "util/rng.h"

namespace aidx {
namespace {

using I64Cut = Cut<std::int64_t>;
using Index = CrackerIndex<std::int64_t>;

TEST(CrackerIndexTest, FreshIndexIsOnePiece) {
  Index idx(100);
  EXPECT_EQ(idx.num_cuts(), 0u);
  EXPECT_EQ(idx.num_pieces(), 1u);
  const auto look = idx.Lookup({50, CutKind::kLess});
  EXPECT_FALSE(look.exact);
  EXPECT_EQ(look.piece.begin, 0u);
  EXPECT_EQ(look.piece.end, 100u);
  EXPECT_FALSE(look.piece.lower.has_value());
  EXPECT_FALSE(look.piece.upper.has_value());
}

TEST(CrackerIndexTest, AddCutThenExactLookup) {
  Index idx(100);
  idx.AddCut({50, CutKind::kLess}, 42);
  const auto look = idx.Lookup({50, CutKind::kLess});
  EXPECT_TRUE(look.exact);
  EXPECT_EQ(look.position, 42u);
  EXPECT_EQ(idx.num_pieces(), 2u);
}

TEST(CrackerIndexTest, LookupIdentifiesEnclosingPiece) {
  Index idx(100);
  idx.AddCut({30, CutKind::kLess}, 25);
  idx.AddCut({70, CutKind::kLess}, 80);
  const auto mid = idx.Lookup({50, CutKind::kLess});
  EXPECT_FALSE(mid.exact);
  EXPECT_EQ(mid.piece.begin, 25u);
  EXPECT_EQ(mid.piece.end, 80u);
  ASSERT_TRUE(mid.piece.lower.has_value());
  EXPECT_EQ(*mid.piece.lower, (I64Cut{30, CutKind::kLess}));
  ASSERT_TRUE(mid.piece.upper.has_value());
  EXPECT_EQ(*mid.piece.upper, (I64Cut{70, CutKind::kLess}));

  const auto left = idx.Lookup({10, CutKind::kLess});
  EXPECT_EQ(left.piece.begin, 0u);
  EXPECT_EQ(left.piece.end, 25u);

  const auto right = idx.Lookup({90, CutKind::kLessEq});
  EXPECT_EQ(right.piece.begin, 80u);
  EXPECT_EQ(right.piece.end, 100u);
}

TEST(CrackerIndexTest, LessAndLessEqCutsCoexist) {
  Index idx(100);
  idx.AddCut({50, CutKind::kLess}, 40);
  idx.AddCut({50, CutKind::kLessEq}, 45);  // 5 values equal to 50
  EXPECT_TRUE(idx.Lookup({50, CutKind::kLess}).exact);
  EXPECT_TRUE(idx.Lookup({50, CutKind::kLessEq}).exact);
  EXPECT_EQ(idx.Lookup({50, CutKind::kLess}).position, 40u);
  EXPECT_EQ(idx.Lookup({50, CutKind::kLessEq}).position, 45u);
  EXPECT_TRUE(idx.Validate());
}

TEST(CrackerIndexTest, PieceForValueRespectsCutKinds) {
  Index idx(100);
  idx.AddCut({50, CutKind::kLess}, 40);    // [0,40) < 50, [40,..) >= 50
  idx.AddCut({50, CutKind::kLessEq}, 45);  // [0,45) <= 50, [45,..) > 50
  // Value 49 must land before position 40.
  auto piece = idx.PieceForValue(49);
  EXPECT_EQ(piece.end, 40u);
  // Value 50 must land in [40, 45).
  piece = idx.PieceForValue(50);
  EXPECT_EQ(piece.begin, 40u);
  EXPECT_EQ(piece.end, 45u);
  // Value 51 lands after 45.
  piece = idx.PieceForValue(51);
  EXPECT_EQ(piece.begin, 45u);
  EXPECT_EQ(piece.end, 100u);
}

TEST(CrackerIndexTest, VisitPiecesCoversWholeArray) {
  Index idx(100);
  idx.AddCut({30, CutKind::kLess}, 25);
  idx.AddCut({70, CutKind::kLessEq}, 80);
  std::vector<PieceInfo<std::int64_t>> pieces;
  idx.VisitPieces([&](const PieceInfo<std::int64_t>& p) { pieces.push_back(p); });
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].begin, 0u);
  EXPECT_EQ(pieces[0].end, 25u);
  EXPECT_FALSE(pieces[0].lower.has_value());
  EXPECT_EQ(pieces[1].begin, 25u);
  EXPECT_EQ(pieces[1].end, 80u);
  EXPECT_EQ(pieces[2].begin, 80u);
  EXPECT_EQ(pieces[2].end, 100u);
  EXPECT_FALSE(pieces[2].upper.has_value());
}

TEST(CrackerIndexTest, VisitCutsFromShiftsPositions) {
  Index idx(100);
  idx.AddCut({10, CutKind::kLess}, 10);
  idx.AddCut({20, CutKind::kLess}, 20);
  idx.AddCut({30, CutKind::kLess}, 30);
  // Shift all cuts at/after (20, kLess) by +5 (ripple-insert bookkeeping).
  idx.VisitCutsFrom({20, CutKind::kLess},
                    [](const I64Cut&, std::size_t& pos) { pos += 5; });
  EXPECT_EQ(idx.Lookup({10, CutKind::kLess}).position, 10u);
  EXPECT_EQ(idx.Lookup({20, CutKind::kLess}).position, 25u);
  EXPECT_EQ(idx.Lookup({30, CutKind::kLess}).position, 35u);
}

TEST(CrackerIndexTest, ValidateCatchesNonMonotonePositions) {
  Index idx(100);
  idx.AddCut({30, CutKind::kLess}, 60);
  idx.AddCut({70, CutKind::kLess}, 40);  // position regressed: invalid
  EXPECT_FALSE(idx.Validate());
}

TEST(CrackerIndexTest, ColumnSizeGrowth) {
  Index idx(100);
  idx.AddCut({50, CutKind::kLess}, 40);
  idx.set_column_size(110);
  const auto look = idx.Lookup({90, CutKind::kLess});
  EXPECT_EQ(look.piece.end, 110u);
}

TEST(CrackerIndexTest, ZeroWidthPieces) {
  Index idx(10);
  idx.AddCut({5, CutKind::kLess}, 4);
  idx.AddCut({5, CutKind::kLessEq}, 4);  // no values equal 5
  const auto look = idx.Lookup({5, CutKind::kLessEq});
  EXPECT_TRUE(look.exact);
  EXPECT_EQ(look.position, 4u);
  EXPECT_TRUE(idx.Validate());
}

TEST(CrackerIndexTest, EmptyColumn) {
  Index idx(0);
  const auto look = idx.Lookup({5, CutKind::kLess});
  EXPECT_FALSE(look.exact);
  EXPECT_EQ(look.piece.begin, 0u);
  EXPECT_EQ(look.piece.end, 0u);
}

}  // namespace
// One-descent Lookup against the three-descent answer it replaces:
// Find for the exact hit, then FindFloor and FindAbove for the piece, on a
// plain AVL tree holding the same cuts. Few distinct values make
// duplicate values under both kinds the common case.
TEST(CrackerIndexTest, OneDescentLookupMatchesThreeDescents) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1000;
    Index idx(n);
    AvlTree<I64Cut, std::size_t> mirror;
    const int cuts = static_cast<int>(rng.NextBounded(60));
    for (int c = 0; c < cuts; ++c) {
      const I64Cut cut{static_cast<std::int64_t>(rng.NextBounded(20)),
                       rng.NextBounded(2) == 0 ? CutKind::kLess : CutKind::kLessEq};
      if (mirror.Contains(cut)) continue;
      mirror.Insert(cut, 0);
    }
    // Positions ascending in cut order, as a cracked array has them.
    std::size_t pos = 0;
    mirror.VisitInOrder([&](AvlTree<I64Cut, std::size_t>::Node& node) {
      pos += rng.NextBounded(3) * 10;  // repeats make empty pieces
      node.value = std::min(pos, n);
      idx.AddCut(node.key, node.value);
    });
    for (std::int64_t v = -1; v <= 20; ++v) {
      for (const CutKind kind : {CutKind::kLess, CutKind::kLessEq}) {
        const I64Cut probe{v, kind};
        const CutLookup<std::int64_t> look = idx.Lookup(probe);
        const auto* exact = mirror.Find(probe);
        ASSERT_EQ(look.exact, exact != nullptr) << probe.ToString();
        if (exact != nullptr) {
          EXPECT_EQ(look.position, exact->value);
          continue;
        }
        const auto* floor = mirror.FindFloor(probe);
        const auto* above = mirror.FindAbove(probe);
        EXPECT_EQ(look.piece.begin, floor != nullptr ? floor->value : 0u);
        EXPECT_EQ(look.piece.end, above != nullptr ? above->value : n);
        EXPECT_EQ(look.piece.lower.has_value(), floor != nullptr);
        if (floor != nullptr) {
          EXPECT_EQ(*look.piece.lower, floor->key);
        }
        EXPECT_EQ(look.piece.upper.has_value(), above != nullptr);
        if (above != nullptr) {
          EXPECT_EQ(*look.piece.upper, above->key);
        }
      }
    }
  }
}

/// Sorted values 0..n-1 with a cut at every multiple of `step`, so each
/// cut's position equals its value.
Index SortedIndex(std::size_t n, std::size_t step) {
  Index idx(n);
  for (std::size_t p = step; p < n; p += step) {
    idx.AddCut({static_cast<std::int64_t>(p), CutKind::kLess}, p);
  }
  return idx;
}

std::vector<std::int64_t> Iota(std::size_t n) {
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::int64_t>(i);
  return v;
}

Int128 Stream(std::span<const std::int64_t> values, std::size_t b, std::size_t e) {
  return SumValues<std::int64_t>(values.subspan(b, e - b));
}

TEST(CrackerIndexTest, SumPiecesMatchesStreamAndFillsTheCache) {
  const auto values = Iota(1000);
  Index idx = SortedIndex(values.size(), 10);  // 70 and 130 are boundaries
  // Every boundary pair, twice: the first pass fills, the second reads.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t b = 0; b <= 1000; b += 70) {
      for (std::size_t e = b; e <= 1000; e += 130) {
        ASSERT_EQ(idx.SumPieces({b, e}, values), Stream(values, b, e)) << b << ".." << e;
      }
    }
    EXPECT_TRUE(idx.ValidateOver(values));
  }
}

TEST(CrackerIndexTest, AddCutDropsOnlyTheSplitPieceSums) {
  const auto values = Iota(100);
  Index idx = SortedIndex(values.size(), 20);
  EXPECT_EQ(idx.SumPieces({0, 100}, values), Stream(values, 0, 100));
  idx.AddCut({50, CutKind::kLess}, 50);  // splits [40, 60)
  idx.AddCut({95, CutKind::kLess}, 95);  // splits the tail [80, 100)
  EXPECT_TRUE(idx.ValidateOver(values));
  EXPECT_EQ(idx.SumPieces({0, 100}, values), Stream(values, 0, 100));
  EXPECT_EQ(idx.SumPieces({50, 95}, values), Stream(values, 50, 95));
  EXPECT_TRUE(idx.ValidateOver(values));
}

TEST(CrackerIndexTest, ValidateOverCatchesAStaleSum) {
  auto values = Iota(100);
  Index idx = SortedIndex(values.size(), 20);
  EXPECT_EQ(idx.SumPieces({0, 100}, values), Stream(values, 0, 100));
  values[30] = 31;  // an edit the index was not told about
  EXPECT_FALSE(idx.ValidateOver(values));
  idx.InvalidateSums();
  EXPECT_TRUE(idx.ValidateOver(values));
}

TEST(CrackerIndexTest, PieceAdjustmentsKeepKnownSumsExact) {
  auto values = Iota(100);
  Index idx = SortedIndex(values.size(), 20);
  EXPECT_EQ(idx.SumPieces({0, 100}, values), Stream(values, 0, 100));
  // Change a value within its piece [20, 40), telling the index.
  const PieceInfo<std::int64_t> piece = idx.PieceForValue(values[25]);
  idx.AdjustPieceSum(piece, values[25], -1);
  values[25] = 26;
  idx.AdjustPieceSum(piece, values[25], +1);
  EXPECT_TRUE(idx.ValidateOver(values));
  // The tail piece is adjusted through its own sum.
  const PieceInfo<std::int64_t> tail = idx.PieceForValue(values[90]);
  EXPECT_FALSE(tail.upper.has_value());
  idx.AdjustPieceSum(tail, values[90], -1);
  values[90] = 91;
  idx.AdjustPieceSum(tail, values[90], +1);
  EXPECT_TRUE(idx.ValidateOver(values));
  EXPECT_EQ(idx.SumPieces({0, 100}, values), Stream(values, 0, 100));
}

// SumPieces over an array of the same length with other values reads a
// sum from that array exactly where the index's own is unknown.
TEST(CrackerIndexTest, CloneAndClearLeaveSumsUnknown) {
  const auto values = Iota(200);
  const std::vector<std::int64_t> ones(values.size(), 1);
  Index idx = SortedIndex(values.size(), 25);
  EXPECT_EQ(idx.SumPieces({0, 200}, values), Stream(values, 0, 200));
  Index copy = idx.Clone();
  EXPECT_EQ(copy.num_cuts(), idx.num_cuts());
  EXPECT_TRUE(copy.ValidateOver(values));
  EXPECT_EQ(copy.SumPieces({25, 200}, ones), 175);
  EXPECT_EQ(idx.SumPieces({25, 200}, ones), Stream(values, 25, 200));
  idx.Clear();
  EXPECT_EQ(idx.num_pieces(), 1u);
  EXPECT_TRUE(idx.ValidateOver(values));
  EXPECT_EQ(idx.SumPieces({0, 200}, ones), 200);
}

TEST(CrackerIndexTest, AddCutStoresTheSplitPiecesSums) {
  const auto values = Iota(100);
  const std::vector<std::int64_t> zeros(values.size(), 0);
  Index idx = SortedIndex(values.size(), 20);
  EXPECT_EQ(idx.Lookup({50, CutKind::kLess}).piece_sum, kUnknownSum);
  EXPECT_EQ(idx.SumPieces({0, 100}, values), Stream(values, 0, 100));
  EXPECT_EQ(idx.Lookup({50, CutKind::kLess}).piece_sum, Stream(values, 40, 60));
  EXPECT_EQ(idx.Lookup({95, CutKind::kLess}).piece_sum, Stream(values, 80, 100));
  idx.AddCut({50, CutKind::kLess}, 50, Stream(values, 40, 50), Stream(values, 50, 60));
  idx.AddCut({95, CutKind::kLess}, 95, Stream(values, 80, 95), Stream(values, 95, 100));
  EXPECT_TRUE(idx.ValidateOver(values));
  EXPECT_EQ(idx.Lookup({45, CutKind::kLess}).piece_sum, Stream(values, 40, 50));
  EXPECT_EQ(idx.Lookup({97, CutKind::kLess}).piece_sum, Stream(values, 95, 100));
  // Every sum stayed known, so none is read from `zeros`.
  for (const auto& [b, e] : {std::pair<std::size_t, std::size_t>{0, 100}, {50, 95},
                            {40, 50}, {95, 100}, {20, 60}}) {
    EXPECT_EQ(idx.SumPieces({b, e}, zeros), Stream(values, b, e)) << b << ".." << e;
  }
}

// Cuts added in random order with their pieces' sums, as cracks of summed
// pieces add them: every subtree sum stays known and exact through the
// rotations the inserts cause.
TEST(CrackerIndexTest, SeededCutsKeepSubtreeSumsExactThroughRotations) {
  const auto values = Iota(1000);
  const std::vector<std::int64_t> zeros(values.size(), 0);
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Index idx(values.size());
    EXPECT_EQ(idx.SumPieces({0, 1000}, values), Stream(values, 0, 1000));
    for (int c = 0; c < 200; ++c) {
      const std::size_t p = rng.NextBounded(values.size() + 1);
      const I64Cut cut{static_cast<std::int64_t>(p), CutKind::kLess};
      const CutLookup<std::int64_t> look = idx.Lookup(cut);
      if (look.exact) continue;
      ASSERT_EQ(look.piece_sum, Stream(values, look.piece.begin, look.piece.end));
      idx.AddCut(cut, p, Stream(values, look.piece.begin, p),
                 Stream(values, p, look.piece.end));
    }
    ASSERT_TRUE(idx.ValidateOver(values));
    for (int q = 0; q < 50; ++q) {
      std::size_t b = 0;
      std::size_t e = values.size();
      // Boundaries on cut positions, as a select's core has them.
      idx.VisitCuts([&](const I64Cut&, const std::size_t& pos) {
        if (rng.NextBounded(8) == 0) (rng.NextBounded(2) == 0 ? b : e) = pos;
      });
      if (e < b) std::swap(b, e);
      ASSERT_EQ(idx.SumPieces({b, e}, zeros), Stream(values, b, e)) << b << ".." << e;
    }
  }
}

TEST(CrackerIndexTest, SumPiecesIsExactAtTheInt64Extremes) {
  using Lim = std::numeric_limits<std::int64_t>;
  std::vector<std::int64_t> values(64);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = i < 32 ? Lim::min() : Lim::max();
  }
  Index idx(values.size());
  idx.AddCut({0, CutKind::kLess}, 32);
  idx.AddCut({Lim::max(), CutKind::kLess}, 32);
  EXPECT_EQ(idx.SumPieces({0, 32}, values), Stream(values, 0, 32));
  EXPECT_EQ(idx.SumPieces({32, 64}, values), Stream(values, 32, 64));
  EXPECT_EQ(idx.SumPieces({0, 64}, values), Stream(values, 0, 64));
  EXPECT_TRUE(idx.ValidateOver(values));
}

}  // namespace aidx
