// Differential suite for the crack kernels (core/crack_ops.h): every
// CrackKernel must be observationally identical to the branchy oracle —
// same split points from the raw primitives, same query results from every
// strategy built on them, and sound pieces (ValidatePieces) throughout.
// Runs over randomized workloads × all StrategyKinds × int32/int64/float64
// × tandem/no-tandem payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "../bench/crack_two_pass.h"
#include "core/crack_ops.h"
#include "core/cracker_column.h"
#include "exec/access_path.h"
#include "index/scan.h"
#include "parallel/partitioned_cracker_column.h"
#include "sideways/cracker_map.h"
#include "update/updatable_column.h"
#include "util/rng.h"

namespace aidx {
namespace {

constexpr CrackKernel kAllKernels[] = {
    CrackKernel::kBranchy,
    CrackKernel::kPredicated,
    CrackKernel::kPredicatedUnrolled,
    CrackKernel::kSimd,
};

// The non-branchy kernels under differential test against the branchy
// oracle. kSimd is always in the list: on hosts without AVX2/NEON it
// resolves to the scalar blocked classifier, which must be just as exact.
constexpr CrackKernel kVariantKernels[] = {
    CrackKernel::kPredicated,
    CrackKernel::kPredicatedUnrolled,
    CrackKernel::kSimd,
};

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
std::vector<T> RandomValues(std::size_t n, std::uint64_t domain, Rng* rng) {
  std::vector<T> out(n);
  for (auto& v : out) v = ValueDomain<T>::Make(rng->NextBounded(domain));
  return out;
}

template <typename T>
class CrackKernelTypedTest : public ::testing::Test {};

using ValueTypes = ::testing::Types<std::int32_t, std::int64_t, double>;
TYPED_TEST_SUITE(CrackKernelTypedTest, ValueTypes);

// ---------------------------------------------------------------------------
// Raw primitive equivalence: split points, partition property, multiset
// preservation, tandem pairing — across sizes spanning the dispatch
// threshold and block boundaries.
// ---------------------------------------------------------------------------

TYPED_TEST(CrackKernelTypedTest, CrackInTwoMatchesBranchyOracle) {
  using T = TypeParam;
  const std::size_t sizes[] = {0,   1,   2,   3,   31,  32,   33,   63,
                               64,  65,  127, 128, 129, 255,  256,  1000,
                               4096, 5000};
  const std::uint64_t domains[] = {1, 8, 1u << 16};  // all-equal .. mostly-distinct
  Rng rng(1234);
  for (const std::size_t n : sizes) {
    for (const std::uint64_t domain : domains) {
      const std::vector<T> base = RandomValues<T>(n, domain, &rng);
      for (const CutKind kind : {CutKind::kLess, CutKind::kLessEq}) {
        const Cut<T> cut{ValueDomain<T>::Make(rng.NextBounded(domain + 1)), kind};
        std::vector<T> oracle = base;
        const std::size_t want =
            CrackInTwo<T>(oracle, {}, cut, CrackKernel::kBranchy);
        for (const CrackKernel kernel : kVariantKernels) {
          std::vector<T> got = base;
          const std::size_t split = CrackInTwo<T>(got, {}, cut, kernel);
          ASSERT_EQ(split, want)
              << CrackKernelName(kernel) << " n=" << n << " cut=" << cut.ToString();
          for (std::size_t i = 0; i < split; ++i) {
            ASSERT_TRUE(cut.Below(got[i])) << CrackKernelName(kernel) << " @" << i;
          }
          for (std::size_t i = split; i < n; ++i) {
            ASSERT_FALSE(cut.Below(got[i])) << CrackKernelName(kernel) << " @" << i;
          }
          std::vector<T> a = got, b = base;
          std::sort(a.begin(), a.end());
          std::sort(b.begin(), b.end());
          ASSERT_EQ(a, b) << CrackKernelName(kernel) << ": multiset changed";
        }
      }
    }
  }
}

TYPED_TEST(CrackKernelTypedTest, CrackInTwoKeepsPayloadsInTandem) {
  using T = TypeParam;
  Rng rng(99);
  for (const std::size_t n : {65u, 200u, 4096u}) {
    const std::vector<T> base = RandomValues<T>(n, 1 << 10, &rng);
    const Cut<T> cut{ValueDomain<T>::Make(1 << 9), CutKind::kLess};
    for (const CrackKernel kernel : kAllKernels) {
      std::vector<T> values = base;
      std::vector<row_id_t> rids(n);
      for (std::size_t i = 0; i < n; ++i) rids[i] = static_cast<row_id_t>(i);
      const std::size_t split =
          CrackInTwo<T>(values, std::span<row_id_t>(rids), cut, kernel);
      (void)split;
      // Every payload must still sit next to the value it started with.
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(values[i], base[rids[i]])
            << CrackKernelName(kernel) << " payload detached at " << i;
      }
    }
  }
}

TYPED_TEST(CrackKernelTypedTest, CrackInThreeMatchesBranchyOracle) {
  using T = TypeParam;
  Rng rng(4321);
  // 511..513 straddle the SIMD crack-in-three block threshold (2 * 256);
  // 10000 is enough whole blocks to exercise the double-ended main loop.
  for (const std::size_t n :
       {0u, 1u, 100u, 127u, 128u, 511u, 512u, 513u, 1000u, 4096u, 10000u}) {
    for (const std::uint64_t domain : {4u, 1u << 12}) {
      const std::vector<T> base = RandomValues<T>(n, domain, &rng);
      const T a = ValueDomain<T>::Make(rng.NextBounded(domain));
      const T b = ValueDomain<T>::Make(rng.NextBounded(domain));
      const Cut<T> lo{std::min(a, b), CutKind::kLess};
      const Cut<T> hi{std::max(a, b), CutKind::kLessEq};
      std::vector<T> oracle = base;
      const ThreeWaySplit want =
          CrackInThree<T>(oracle, {}, lo, hi, CrackKernel::kBranchy);
      for (const CrackKernel kernel : kVariantKernels) {
        std::vector<T> got = base;
        std::vector<row_id_t> rids(n);
        for (std::size_t i = 0; i < n; ++i) rids[i] = static_cast<row_id_t>(i);
        const ThreeWaySplit split =
            CrackInThree<T>(got, std::span<row_id_t>(rids), lo, hi, kernel);
        ASSERT_EQ(split.lower_end, want.lower_end) << CrackKernelName(kernel);
        ASSERT_EQ(split.middle_end, want.middle_end) << CrackKernelName(kernel);
        for (std::size_t i = 0; i < n; ++i) {
          const bool in_a = i < split.lower_end;
          const bool in_c = i >= split.middle_end;
          ASSERT_EQ(lo.Below(got[i]), in_a) << CrackKernelName(kernel) << " @" << i;
          ASSERT_EQ(!hi.Below(got[i]), in_c) << CrackKernelName(kernel) << " @" << i;
          ASSERT_EQ(got[i], base[rids[i]]) << CrackKernelName(kernel) << " @" << i;
        }
      }
    }
  }
}

// The single-pass crack-in-three must produce exactly the split points of
// the two-pass decomposition it replaced, for every kernel, every cut-kind
// combination, and duplicate-heavy data — with per-region multisets equal
// (element order within a region is kernel-specific and not part of the
// contract).
TYPED_TEST(CrackKernelTypedTest, CrackInThreeMatchesTwoPassOracle) {
  using T = TypeParam;
  Rng rng(888);
  for (const std::size_t n : {63u, 256u, 511u, 512u, 513u, 3000u, 10000u}) {
    for (const std::uint64_t domain : {8u, 1u << 12}) {  // dup-heavy .. distinct
      const std::vector<T> base = RandomValues<T>(n, domain, &rng);
      const T raw_a = ValueDomain<T>::Make(rng.NextBounded(domain));
      const T raw_b = ValueDomain<T>::Make(rng.NextBounded(domain));
      const T lo_v = std::min(raw_a, raw_b);
      const T hi_v = std::max(raw_a, raw_b);
      for (const CutKind lo_kind : {CutKind::kLess, CutKind::kLessEq}) {
        for (const CutKind hi_kind : {CutKind::kLess, CutKind::kLessEq}) {
          if (lo_v == hi_v &&
              lo_kind == CutKind::kLessEq && hi_kind == CutKind::kLess) {
            continue;  // illegal pair: empty middle below the lower cut
          }
          const Cut<T> lo{lo_v, lo_kind};
          const Cut<T> hi{hi_v, hi_kind};
          std::vector<T> oracle = base;
          const ThreeWaySplit want = CrackInThreeTwoPass<T>(
              oracle, {}, lo, hi, CrackKernel::kBranchy);
          for (const CrackKernel kernel : kAllKernels) {
            for (const bool tandem : {false, true}) {
              std::vector<T> got = base;
              std::vector<row_id_t> rids(tandem ? n : 0);
              for (std::size_t i = 0; i < rids.size(); ++i) {
                rids[i] = static_cast<row_id_t>(i);
              }
              const ThreeWaySplit split = CrackInThree<T>(
                  got, std::span<row_id_t>(rids), lo, hi, kernel);
              ASSERT_EQ(split.lower_end, want.lower_end)
                  << CrackKernelName(kernel) << " n=" << n
                  << " tandem=" << tandem;
              ASSERT_EQ(split.middle_end, want.middle_end)
                  << CrackKernelName(kernel) << " n=" << n;
              // Per-region multisets match the two-pass oracle's regions.
              auto region_sorted = [](std::vector<T> v, std::size_t b,
                                      std::size_t e) {
                std::sort(v.begin() + b, v.begin() + e);
                return std::vector<T>(v.begin() + b, v.begin() + e);
              };
              for (const auto& [b, e] :
                   {std::pair<std::size_t, std::size_t>{0, split.lower_end},
                    {split.lower_end, split.middle_end},
                    {split.middle_end, n}}) {
                ASSERT_EQ(region_sorted(got, b, e), region_sorted(oracle, b, e))
                    << CrackKernelName(kernel) << " n=" << n << " region ["
                    << b << "," << e << ")";
              }
              for (std::size_t i = 0; tandem && i < n; ++i) {
                ASSERT_EQ(got[i], base[rids[i]])
                    << CrackKernelName(kernel) << " payload detached @" << i;
              }
            }
          }
        }
      }
    }
  }
}

// Pieces rarely start at an aligned address: crack subspans at odd offsets
// and lengths around the vector width, with guard bands on both sides. Any
// kernel store that strays outside its piece corrupts a neighbouring piece
// in production; here it trips the guard check.
TYPED_TEST(CrackKernelTypedTest, UnalignedPieceOffsetsStayInBounds) {
  using T = TypeParam;
  constexpr std::size_t kGuard = 64;
  const T kSentinel = ValueDomain<T>::Make(0xABCDEF);
  Rng rng(246);
  for (const std::size_t offset : {1u, 3u, 7u, 9u, 31u, 33u}) {
    for (const std::size_t len :
         {7u, 8u, 15u, 16u, 17u, 31u, 32u, 33u, 255u, 256u, 257u, 511u,
          512u, 513u, 2048u}) {
      const std::vector<T> piece = RandomValues<T>(len, 1u << 10, &rng);
      std::vector<T> buf(offset + len + kGuard, kSentinel);
      const Cut<T> cut{ValueDomain<T>::Make(1u << 9), CutKind::kLess};
      const Cut<T> hi{ValueDomain<T>::Make(3u << 8), CutKind::kLessEq};
      for (const CrackKernel kernel : kAllKernels) {
        // Crack-in-two on the unaligned subspan.
        std::copy(piece.begin(), piece.end(), buf.begin() + offset);
        std::vector<T> oracle = piece;
        const std::size_t want =
            CrackInTwo<T>(oracle, {}, cut, CrackKernel::kBranchy);
        const std::size_t split = CrackInTwo<T>(
            std::span<T>(buf).subspan(offset, len), {}, cut, kernel);
        ASSERT_EQ(split, want)
            << CrackKernelName(kernel) << " off=" << offset << " len=" << len;
        for (std::size_t i = 0; i < offset; ++i) {
          ASSERT_EQ(buf[i], kSentinel)
              << CrackKernelName(kernel) << " wrote before piece @" << i;
        }
        for (std::size_t i = offset + len; i < buf.size(); ++i) {
          ASSERT_EQ(buf[i], kSentinel)
              << CrackKernelName(kernel) << " wrote after piece @" << i;
        }
        // Crack-in-three on the same subspan.
        std::copy(piece.begin(), piece.end(), buf.begin() + offset);
        CrackInThree<T>(std::span<T>(buf).subspan(offset, len), {}, cut, hi,
                        kernel);
        for (std::size_t i = 0; i < offset; ++i) {
          ASSERT_EQ(buf[i], kSentinel)
              << CrackKernelName(kernel) << " 3-way wrote before piece @" << i;
        }
        for (std::size_t i = offset + len; i < buf.size(); ++i) {
          ASSERT_EQ(buf[i], kSentinel)
              << CrackKernelName(kernel) << " 3-way wrote after piece @" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CrackerColumn: every kernel answers a randomized query stream exactly
// like the branchy column, with sound pieces after every query.
// ---------------------------------------------------------------------------

TYPED_TEST(CrackKernelTypedTest, CrackerColumnDifferential) {
  using T = TypeParam;
  constexpr std::uint64_t kDomain = 4000;
  for (const bool with_rids : {false, true}) {
    for (const bool stochastic : {false, true}) {
      Rng data_rng(7);
      const std::vector<T> base = RandomValues<T>(6000, kDomain, &data_rng);
      CrackerColumnOptions oracle_options{.with_row_ids = with_rids};
      if (stochastic) oracle_options.stochastic_threshold = 512;
      CrackerColumn<T> oracle(base, oracle_options);
      for (const CrackKernel kernel : kVariantKernels) {
        CrackerColumnOptions options = oracle_options;
        options.kernel = kernel;
        CrackerColumn<T> column(base, options);
        Rng query_rng(13);
        for (int q = 0; q < 120; ++q) {
          const T lo = ValueDomain<T>::Make(query_rng.NextBounded(kDomain));
          const T width = ValueDomain<T>::Make(query_rng.NextBounded(400));
          const auto pred = RangePredicate<T>::Between(lo, lo + width);
          ASSERT_EQ(column.Count(pred), oracle.Count(pred))
              << CrackKernelName(kernel) << " stochastic=" << stochastic
              << " query " << q;
          ASSERT_EQ(static_cast<double>(column.Sum(pred)),
                    static_cast<double>(oracle.Sum(pred)))
              << CrackKernelName(kernel) << " query " << q;
          ASSERT_TRUE(column.ValidatePieces())
              << CrackKernelName(kernel) << " unsound pieces after query " << q;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Full strategy surface: all eight StrategyKinds produce identical query
// results under every kernel (read-only and mixed-update workloads).
// ---------------------------------------------------------------------------

std::vector<StrategyConfig> AllStrategyShapes() {
  // Small run/partition sizes so merge machinery engages at test scale.
  return {
      StrategyConfig::FullScan(),
      StrategyConfig::FullSort(),
      StrategyConfig::BTree(),
      StrategyConfig::Crack(),
      StrategyConfig::StochasticCrack(512),
      StrategyConfig::AdaptiveMerge(700),
      StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kSort, 700),
      StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kCrack, 700),
      StrategyConfig::ParallelCrack(4, 1),
  };
}

TYPED_TEST(CrackKernelTypedTest, AllStrategiesAgreeUnderEveryKernel) {
  using T = TypeParam;
  constexpr std::uint64_t kDomain = 3000;
  Rng data_rng(21);
  const std::vector<T> base = RandomValues<T>(5000, kDomain, &data_rng);

  for (StrategyConfig config : AllStrategyShapes()) {
    for (const bool with_rids : {false, true}) {
      config.with_row_ids = with_rids;
      // Branchy is the oracle; the variants must match it query by query.
      config.crack_kernel = CrackKernel::kBranchy;
      auto oracle = MakeAccessPath<T>(base, config);
      std::vector<std::unique_ptr<AccessPath<T>>> variants;
      for (const CrackKernel kernel : kVariantKernels) {
        config.crack_kernel = kernel;
        variants.push_back(MakeAccessPath<T>(base, config));
      }
      Rng query_rng(34);
      for (int q = 0; q < 80; ++q) {
        const T lo = ValueDomain<T>::Make(query_rng.NextBounded(kDomain));
        const T width = ValueDomain<T>::Make(query_rng.NextBounded(300));
        const auto pred = q == 0 ? RangePredicate<T>::All()
                                 : RangePredicate<T>::Between(lo, lo + width);
        const std::size_t want_count = oracle->Count(pred);
        const auto want_sum = static_cast<double>(oracle->Sum(pred));
        for (std::size_t k = 0; k < variants.size(); ++k) {
          ASSERT_EQ(variants[k]->Count(pred), want_count)
              << variants[k]->name() << " query " << q;
          ASSERT_EQ(static_cast<double>(variants[k]->Sum(pred)), want_sum)
              << variants[k]->name() << " query " << q;
        }
      }
    }
  }
}

TYPED_TEST(CrackKernelTypedTest, MixedUpdatesAgreeUnderEveryKernel) {
  using T = TypeParam;
  constexpr std::uint64_t kDomain = 2000;
  // The strategies whose write pipelines route through crack kernels.
  std::vector<StrategyConfig> configs = {
      StrategyConfig::Crack(),
      StrategyConfig::StochasticCrack(512),
      StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kCrack, 700),
      StrategyConfig::ParallelCrack(4, 1),
  };
  for (StrategyConfig config : configs) {
    for (const CrackKernel kernel : kVariantKernels) {
      config.crack_kernel = kernel;
      Rng rng(55);
      std::vector<T> base = RandomValues<T>(3000, kDomain, &rng);
      std::vector<T> model = base;
      auto path = MakeAccessPath<T>(base, config);
      const std::string label = path->name();
      for (int step = 0; step < 500; ++step) {
        const auto dice = rng.NextBounded(10);
        if (dice < 3) {
          const T v = ValueDomain<T>::Make(rng.NextBounded(kDomain));
          path->Insert(v);
          model.push_back(v);
        } else if (dice < 5) {
          T v;
          if (rng.NextBounded(4) == 0 || model.empty()) {
            v = ValueDomain<T>::Make(kDomain + rng.NextBounded(50));  // absent
          } else {
            v = model[rng.NextBounded(model.size())];
          }
          bool expect = false;
          for (std::size_t i = 0; i < model.size(); ++i) {
            if (model[i] == v) {
              model[i] = model.back();
              model.pop_back();
              expect = true;
              break;
            }
          }
          ASSERT_EQ(path->Delete(v), expect) << label << " step " << step;
        } else {
          const T lo = ValueDomain<T>::Make(rng.NextBounded(kDomain));
          const T width = ValueDomain<T>::Make(rng.NextBounded(200));
          const auto pred = RangePredicate<T>::Between(lo, lo + width);
          ASSERT_EQ(path->Count(pred), ScanCount<T>(model, pred))
              << label << " step " << step << " " << pred.ToString();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Structure-level soundness under the variant kernels.
// ---------------------------------------------------------------------------

TEST(CrackKernelStructuresTest, PartitionedColumnStaysSound) {
  Rng rng(77);
  std::vector<std::int64_t> base(20000);
  for (auto& v : base) v = static_cast<std::int64_t>(rng.NextBounded(1 << 14));
  for (const CrackKernel kernel : kVariantKernels) {
    PartitionedCrackerOptions options;
    options.num_partitions = 6;
    options.column_options.with_row_ids = true;
    options.column_options.kernel = kernel;
    PartitionedCrackerColumn<std::int64_t> column(base, options);
    Rng query_rng(3);
    for (int q = 0; q < 60; ++q) {
      const auto lo = static_cast<std::int64_t>(query_rng.NextBounded(1 << 14));
      const auto pred = RangePredicate<std::int64_t>::Between(lo, lo + 500);
      const std::size_t got = column.Count(pred);
      ASSERT_EQ(got, ScanCount<std::int64_t>(base, pred))
          << CrackKernelName(kernel) << " query " << q;
    }
    ASSERT_TRUE(column.ValidatePieces()) << CrackKernelName(kernel);
  }
}

TEST(CrackKernelStructuresTest, CrackerMapTandemTailUnderEveryKernel) {
  Rng rng(11);
  const std::size_t n = 9000;
  std::vector<std::int64_t> head(n);
  std::vector<double> tail(n);
  for (std::size_t i = 0; i < n; ++i) {
    head[i] = static_cast<std::int64_t>(rng.NextBounded(1 << 12));
    tail[i] = static_cast<double>(head[i]) * 2.5;  // derived: detects detachment
  }
  for (const CrackKernel kernel : kAllKernels) {
    CrackerMap<std::int64_t, double> map(head, tail, kernel);
    Rng query_rng(29);
    for (int q = 0; q < 50; ++q) {
      const auto lo = static_cast<std::int64_t>(query_rng.NextBounded(1 << 12));
      const auto pred = RangePredicate<std::int64_t>::Between(lo, lo + 200);
      const PositionRange r = map.Select(pred);
      ASSERT_EQ(r.size(), ScanCount<std::int64_t>(head, pred))
          << CrackKernelName(kernel) << " query " << q;
      for (std::size_t p = r.begin; p < r.end; ++p) {
        ASSERT_EQ(map.tail_at(p), static_cast<double>(map.head()[p]) * 2.5)
            << CrackKernelName(kernel) << " tail detached at " << p;
      }
    }
    ASSERT_TRUE(map.Validate()) << CrackKernelName(kernel);
  }
}

// Ripple merges interleaved with kernel cracks: the update pipeline and the
// predicated kernels manipulate the same arrays.
TEST(CrackKernelStructuresTest, UpdatableColumnRippleWithKernels) {
  constexpr std::uint64_t kDomain = 1500;
  for (const MergePolicy policy :
       {MergePolicy::kComplete, MergePolicy::kGradual, MergePolicy::kRipple}) {
    for (const CrackKernel kernel : kVariantKernels) {
      Rng rng(101);
      std::vector<std::int64_t> base(4000);
      for (auto& v : base) v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
      std::vector<std::int64_t> model = base;
      UpdatableCrackerColumn<std::int64_t> column(
          base, {.policy = policy,
                 .gradual_budget = 16,
                 .crack = {.with_row_ids = true, .kernel = kernel}});
      for (int step = 0; step < 400; ++step) {
        const auto dice = rng.NextBounded(6);
        if (dice == 0) {
          const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
          column.Insert(v);
          model.push_back(v);
        } else if (dice == 1 && !model.empty()) {
          const auto v = model[rng.NextBounded(model.size())];
          ASSERT_TRUE(column.DeleteValue(v));
          auto it = std::find(model.begin(), model.end(), v);
          *it = model.back();
          model.pop_back();
        } else {
          const auto lo = static_cast<std::int64_t>(rng.NextBounded(kDomain));
          const auto pred = RangePredicate<std::int64_t>::Between(lo, lo + 120);
          ASSERT_EQ(column.Count(pred), ScanCount<std::int64_t>(model, pred))
              << CrackKernelName(kernel) << "/" << MergePolicyName(policy)
              << " step " << step;
        }
      }
      ASSERT_TRUE(column.Validate())
          << CrackKernelName(kernel) << "/" << MergePolicyName(policy);
    }
  }
}

// ---------------------------------------------------------------------------
// Naming: kernel variants can never alias in figures or name-keyed caches.
// ---------------------------------------------------------------------------

TEST(CrackKernelNamingTest, DisplayNameDistinguishesKernelVariants) {
  for (StrategyConfig config :
       {StrategyConfig::Crack(), StrategyConfig::StochasticCrack(),
        StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kSort),
        StrategyConfig::ParallelCrack(8, 4)}) {
    std::vector<std::string> names;
    for (const CrackKernel kernel : kAllKernels) {
      config.crack_kernel = kernel;
      names.push_back(config.DisplayName());
    }
    EXPECT_NE(names[0], names[1]) << names[0];
    EXPECT_NE(names[0], names[2]) << names[0];
    EXPECT_NE(names[1], names[2]) << names[1];
  }
  // Non-cracking strategies keep their plain names under any kernel —
  // including the sort-only hybrid, whose segments never invoke a kernel.
  StrategyConfig scan = StrategyConfig::FullScan();
  scan.crack_kernel = CrackKernel::kPredicated;
  EXPECT_EQ(scan.DisplayName(), "scan");
  StrategyConfig hss = StrategyConfig::Hybrid(OrganizeMode::kSort, OrganizeMode::kSort);
  hss.crack_kernel = CrackKernel::kPredicated;
  EXPECT_EQ(hss.DisplayName(), "HSS");

  StrategyConfig crack = StrategyConfig::Crack();
  crack.crack_kernel = CrackKernel::kPredicated;
  EXPECT_EQ(crack.DisplayName(), "crack+pred");
  crack.crack_kernel = CrackKernel::kPredicatedUnrolled;
  EXPECT_EQ(crack.DisplayName(), "crack+vec");
}

// ---------------------------------------------------------------------------
// The aggregate kernel (index/scan.h SumValues): integer sums exact against
// an independent __int128 reference, scalar and AVX2 forms bit-identical,
// double sums the sequential long double loop.
// ---------------------------------------------------------------------------

std::string Int128String(Int128 v) {
  const bool negative = v < 0;
  unsigned __int128 u = negative ? -static_cast<unsigned __int128>(v)
                                 : static_cast<unsigned __int128>(v);
  std::string digits;
  do {
    digits.insert(digits.begin(), static_cast<char>('0' + static_cast<int>(u % 10)));
    u /= 10;
  } while (u != 0);
  return negative ? "-" + digits : digits;
}

/// Checks every form of the kernel over `values` (masked when `pred` is
/// given) against the reference loop.
template <typename T>
void ExpectSumKernelExact(std::span<const T> values, const RangePredicate<T>* pred,
                          const std::string& label) {
  Int128 want = 0;
  for (const T v : values) {
    if (pred == nullptr || pred->Matches(v)) want += v;
  }
  const Int128 init = -12345;  // the running-sum argument is honoured
  const auto run_scalar = [&](Int128 acc) {
    return pred == nullptr ? internal::SumValuesScalar<T>(values, acc)
                           : internal::SumValuesScalar<T>(values, *pred, acc);
  };
  const auto run_dispatch = [&](Int128 acc) {
    return pred == nullptr ? SumValues<T>(values, acc) : SumValues<T>(values, *pred, acc);
  };
  EXPECT_TRUE(run_scalar(0) == want)
      << label << " scalar " << Int128String(run_scalar(0)) << " want " << Int128String(want);
  EXPECT_TRUE(run_dispatch(init) == want + init)
      << label << " dispatch " << Int128String(run_dispatch(init)) << " want "
      << Int128String(want + init);
#if defined(AIDX_SIMD_AVX2)
  if (internal::SimdKernelAvailable()) {
    const Int128 avx2 = pred == nullptr ? internal::SumValuesAvx2<T>(values, init)
                                        : internal::SumValuesAvx2<T>(values, *pred, init);
    EXPECT_TRUE(avx2 == run_scalar(init))
        << label << " avx2 " << Int128String(avx2) << " scalar "
        << Int128String(run_scalar(init));
  }
#endif
}

template <typename T>
std::vector<T> FullRangeValues(std::size_t n, Rng* rng) {
  std::vector<T> out(n);
  for (auto& v : out) v = static_cast<T>(rng->Next());
  return out;
}

template <typename T>
std::vector<RangePredicate<T>> ExtremeBoundPredicates() {
  using P = RangePredicate<T>;
  constexpr T kMax = std::numeric_limits<T>::max();
  constexpr T kMin = std::numeric_limits<T>::min();
  return {P::All(),           P::Between(kMin, kMax), P::AtLeast(kMin),
          P::GreaterThan(kMin), P::AtMost(kMax),     P::LessThan(kMax),
          P::GreaterThan(kMax), P::LessThan(kMin),   P::Between(kMax, kMax),
          P::Between(kMin, kMin), P::HalfOpen(-3, kMax), P::Between(kMin / 2, kMax / 2),
          P::Between(5, 1),   P::HalfOpen(0, 0)};
}

template <typename T>
class SumKernelTest : public ::testing::Test {};

using IntegerTypes = ::testing::Types<std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(SumKernelTest, IntegerTypes);

TYPED_TEST(SumKernelTest, ExactOverSizesAndUnalignedStarts) {
  using T = TypeParam;
  Rng rng(2024);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 67; ++n) sizes.push_back(n);
  sizes.push_back(14680);
  for (const std::size_t n : sizes) {
    const std::vector<T> backing = FullRangeValues<T>(n + 3, &rng);
    for (std::size_t start = 0; start < 4; ++start) {
      const std::span<const T> values(backing.data() + start, n);
      ExpectSumKernelExact<T>(values, nullptr,
                              "n=" + std::to_string(n) + " start=" + std::to_string(start));
    }
  }
}

TYPED_TEST(SumKernelTest, ExactOnNegativeAndRepeatedMinimum) {
  using T = TypeParam;
  Rng rng(77);
  std::vector<T> negative = FullRangeValues<T>(14680, &rng);
  for (auto& v : negative) {
    if (v >= 0) v = static_cast<T>(-v - 1);
  }
  ExpectSumKernelExact<T>(negative, nullptr, "all-negative");
  const std::vector<T> minimum(14680, std::numeric_limits<T>::min());
  ExpectSumKernelExact<T>(minimum, nullptr, "repeated min");
  const std::vector<T> maximum(14680, std::numeric_limits<T>::max());
  ExpectSumKernelExact<T>(maximum, nullptr, "repeated max");
  for (std::size_t n = 1; n <= 67; n += 11) {
    ExpectSumKernelExact<T>(std::span<const T>(minimum.data(), n), nullptr,
                            "repeated min n=" + std::to_string(n));
  }
}

TYPED_TEST(SumKernelTest, MaskedVariantAtTheExtremes) {
  using T = TypeParam;
  Rng rng(5);
  std::vector<T> values = FullRangeValues<T>(14680, &rng);
  // Plant the bounds themselves and their neighbours.
  constexpr T kMax = std::numeric_limits<T>::max();
  constexpr T kMin = std::numeric_limits<T>::min();
  for (const T v : {kMin, static_cast<T>(kMin + 1), T{-3}, T{0}, T{1}, T{5},
                    static_cast<T>(kMax - 1), kMax}) {
    for (int copies = 0; copies < 9; ++copies) {
      values[rng.NextBounded(values.size())] = v;
    }
  }
  for (const RangePredicate<T>& pred : ExtremeBoundPredicates<T>()) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{7}, std::size_t{61},
                                values.size() - 1}) {
      ExpectSumKernelExact<T>(std::span<const T>(values.data() + 1, n), &pred,
                              pred.ToString() + " n=" + std::to_string(n));
    }
  }
}

TEST(SumKernelDoubleTest, KeepsTheSequentialLongDoubleLoop) {
  Rng rng(31);
  std::vector<double> values(14680);
  for (auto& v : values) {
    v = static_cast<double>(static_cast<std::int64_t>(rng.Next())) * 1e-7;
  }
  const auto pred = RangePredicate<double>::Between(-1e11, 3e11);
  long double all = 0.5L;
  long double masked = 0;
  for (const double v : values) {
    all += static_cast<long double>(v);
    if (pred.Matches(v)) masked += static_cast<long double>(v);
  }
  EXPECT_EQ(SumValues<double>(values, 0.5L), all);
  EXPECT_EQ(SumValues<double>(values, pred), masked);
  EXPECT_EQ(ScanSum<double>(values, pred), masked);
}

TEST(SumKernelHelpersTest, StagedAndSubtractedSumsStayExact) {
  Rng rng(8);
  const std::vector<std::int64_t> values = FullRangeValues<std::int64_t>(1000, &rng);
  Int128 want = 0;
  for (const std::int64_t v : values) want += v;
  const Int128 staged = SumEach<std::int64_t>(
      values.size(), [&](std::size_t i) { return values[values.size() - 1 - i]; });
  EXPECT_TRUE(staged == want) << Int128String(staged) << " want " << Int128String(want);
  EXPECT_TRUE(SubtractValues<std::int64_t>(values, want) == 0);
}

}  // namespace
}  // namespace aidx
