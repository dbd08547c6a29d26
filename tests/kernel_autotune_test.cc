// Tests for the crack-kernel rule (core/crack_ops.h): kAuto resolves to a
// fixed kernel that depends only on the host's vector ISA, pieces below
// kCrackMinPiece are cracked by the branchy sweep element for element, and
// no earlier crack changes how a later one splits a piece. (The suite keeps
// its historical name from when a startup timing sweep picked the kernel.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/crack_ops.h"
#include "util/rng.h"

namespace aidx {
namespace {

std::vector<std::int32_t> RandomI32(std::size_t n, std::uint64_t domain,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> out(n);
  for (auto& v : out) v = static_cast<std::int32_t>(rng.NextBounded(domain));
  return out;
}

TEST(KernelAutotuneTest, AutoResolvesToSimdExactlyWhenAvailable) {
  const CrackKernel resolved = ResolveCrackKernel(CrackKernel::kAuto);
  EXPECT_EQ(resolved == CrackKernel::kSimd, internal::SimdKernelAvailable());
  EXPECT_EQ(resolved, internal::SimdKernelAvailable()
                          ? CrackKernel::kSimd
                          : CrackKernel::kPredicatedUnrolled);
}

TEST(KernelAutotuneTest, ResolveIsIdentityForConcreteKernels) {
  for (const CrackKernel kernel :
       {CrackKernel::kBranchy, CrackKernel::kPredicatedUnrolled,
        CrackKernel::kSimd}) {
    EXPECT_EQ(ResolveCrackKernel(kernel), kernel);
  }
}

// Pieces below kCrackMinPiece must be cracked by the branchy kernel
// regardless of the requested kernel: not just the same split, the exact
// same element order (the fallback IS the branchy sweep).
TEST(KernelAutotuneTest, MinPieceFallbackIsBranchyElementForElement) {
  const Cut<std::int32_t> cut{500, CutKind::kLess};
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{17}, kCrackMinPiece - 1}) {
    const std::vector<std::int32_t> base = RandomI32(n, 1000, 9 + n);
    std::vector<std::int32_t> oracle = base;
    const std::size_t want =
        CrackInTwo<std::int32_t>(oracle, {}, cut, CrackKernel::kBranchy);
    for (const CrackKernel kernel :
         {CrackKernel::kPredicatedUnrolled, CrackKernel::kSimd,
          CrackKernel::kAuto}) {
      std::vector<std::int32_t> got = base;
      const std::size_t split = CrackInTwo<std::int32_t>(got, {}, cut, kernel);
      EXPECT_EQ(split, want) << CrackKernelName(kernel) << " n=" << n;
      EXPECT_EQ(got, oracle) << CrackKernelName(kernel)
                             << " did not take the branchy fallback at n=" << n;
    }
  }
}

// How a pinned kernel splits a piece is fixed for the process: a kAuto
// crack in between (which once ran a timing sweep and moved the min-piece
// threshold) must not change the element order of a 100-value piece.
TEST(KernelAutotuneTest, SmallPieceSplitDoesNotDependOnEarlierAutoCracks) {
  const Cut<std::int32_t> cut{500, CutKind::kLess};
  const std::vector<std::int32_t> base = RandomI32(100, 1000, 31);
  std::vector<std::int32_t> before = base;
  const std::size_t split_before =
      CrackInTwo<std::int32_t>(before, {}, cut, CrackKernel::kSimd);

  std::vector<std::int32_t> other = RandomI32(1u << 14, 1000, 32);
  CrackInTwo<std::int32_t>(other, {}, cut, CrackKernel::kAuto);

  std::vector<std::int32_t> after = base;
  const std::size_t split_after =
      CrackInTwo<std::int32_t>(after, {}, cut, CrackKernel::kSimd);
  EXPECT_EQ(split_after, split_before);
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace aidx
