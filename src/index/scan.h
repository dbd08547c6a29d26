// The non-indexed access path: predicate scans over dense arrays, and the
// one aggregate kernel every Sum in the library goes through.
//
// Serves four roles: (1) the "no index" baseline of every experiment,
// (2) the oracle the test suite compares every adaptive structure against,
// (3) the edge-piece filter used when cracking stops at a piece-size
// threshold, (4) the sum over a converged crack's answer range — once
// cracking converges, a range query is an index lookup plus this pass.
//
// Aggregation kernel (SumValues). The exactness contract:
//   - integer columns (int32, int64) sum exactly into a 128-bit
//     accumulator (SumAcc), and the caller rounds once to long double at
//     the end (RoundSum). Partials from core ranges, edge pieces,
//     partitions and shards combine in SumAcc, so the answer is
//     the exact sum rounded once, whatever the storage order or split;
//   - double columns use the sequential long double loop in storage
//     order: floating-point addition does not reassociate exactly, so a
//     vector form would change answers.
// The integer kernel has an AVX2 form (sign bit flipped, then per-lane
// sums of the low and high 32-bit halves, combined in 128 bits) and a
// scalar form computing the identical value; the host's cpuid picks one
// (util/simd.h), there is no knob. The masked variant serves the crack
// edges and the scan fallback.
//
// Victim search (LowestRidPosition): the base position of the oldest row
// holding a value, the row a single-row delete removes. It follows the
// same scalar/AVX2 dispatch and stops once it has seen as many matches as
// the caller says exist.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "storage/predicate.h"
#include "storage/types.h"
#include "util/simd.h"

namespace aidx {

/// Counts values matching the predicate. Single tight loop (bulk
/// processing, column-store style); unlike SumValues below it has no
/// explicit SIMD form, so its speed is what the compiler makes of it.
template <ColumnValue T>
std::size_t ScanCount(std::span<const T> values, const RangePredicate<T>& pred) {
  std::size_t count = 0;
  for (const T v : values) count += pred.Matches(v) ? 1 : 0;
  return count;
}

using Int128 = __int128;

/// The running-sum type of the aggregate kernel: exact 128-bit integer for
/// integer columns (no overflow below 2^64 values), long double for double.
template <ColumnValue T>
using SumAcc = std::conditional_t<std::is_integral_v<T>, Int128, long double>;

/// The one rounding step: the exact integer sum to the nearest long double
/// (identity for double columns).
template <ColumnValue T>
long double RoundSum(SumAcc<T> acc) {
  return static_cast<long double>(acc);
}

namespace internal {

/// The predicate as inclusive integer bounds [*lo, *hi]; false when no
/// value can match (an exclusive bound at the domain's edge).
template <ColumnValue T>
  requires std::is_integral_v<T>
bool InclusiveBounds(const RangePredicate<T>& pred, T* lo, T* hi) {
  using Lim = std::numeric_limits<T>;
  *lo = Lim::min();
  *hi = Lim::max();
  if (pred.low_kind == BoundKind::kInclusive) *lo = pred.low;
  if (pred.low_kind == BoundKind::kExclusive) {
    if (pred.low == Lim::max()) return false;
    *lo = static_cast<T>(pred.low + 1);
  }
  if (pred.high_kind == BoundKind::kInclusive) *hi = pred.high;
  if (pred.high_kind == BoundKind::kExclusive) {
    if (pred.high == Lim::min()) return false;
    *hi = static_cast<T>(pred.high - 1);
  }
  return *lo <= *hi;
}

/// Portable form of SumValues: the same exact value as the AVX2 form for
/// integers, the sequential long double loop for double.
template <ColumnValue T>
SumAcc<T> SumValuesScalar(std::span<const T> values, SumAcc<T> acc = {}) {
  for (const T v : values) acc += static_cast<SumAcc<T>>(v);
  return acc;
}

template <ColumnValue T>
SumAcc<T> SumValuesScalar(std::span<const T> values, const RangePredicate<T>& pred,
                          SumAcc<T> acc = {}) {
  if constexpr (std::is_integral_v<T>) {
    T lo{};
    T hi{};
    if (!InclusiveBounds(pred, &lo, &hi)) return acc;
    for (const T v : values) acc += (v >= lo && v <= hi) ? v : T{0};
  } else {
    for (const T v : values) {
      if (pred.Matches(v)) acc += static_cast<long double>(v);
    }
  }
  return acc;
}

#if defined(AIDX_SIMD_AVX2)

/// Adds the four 64-bit lanes of `v`, read as unsigned, into 128 bits.
AIDX_TARGET_AVX2 inline Int128 FoldLanes(__m256i v) {
  alignas(32) std::array<std::uint64_t, 4> lanes{};
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.data()), v);
  return Int128{lanes[0]} + lanes[1] + lanes[2] + lanes[3];
}

/// `v` in every lane of T's width.
template <ColumnValue T>
AIDX_TARGET_AVX2 inline __m256i Broadcast(T v) {
  if constexpr (sizeof(T) == 8) {
    return _mm256_set1_epi64x(v);
  } else {
    return _mm256_set1_epi32(v);
  }
}

/// All-ones in the lanes of `x` outside [lo, hi] (lanes of T's width).
template <ColumnValue T>
AIDX_TARGET_AVX2 inline __m256i LanesOutside(__m256i x, __m256i lo, __m256i hi) {
  if constexpr (sizeof(T) == 8) {
    return _mm256_or_si256(_mm256_cmpgt_epi64(lo, x), _mm256_cmpgt_epi64(x, hi));
  } else {
    return _mm256_or_si256(_mm256_cmpgt_epi32(lo, x), _mm256_cmpgt_epi32(x, hi));
  }
}

/// Loads one vector at `p`, zeroes the values outside [lo, hi] when
/// kMasked, and flips every sign bit.
template <ColumnValue T, bool kMasked>
AIDX_TARGET_AVX2 inline __m256i LoadFlipped(const T* p, __m256i lo, __m256i hi,
                                            __m256i sign_bits) {
  __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  if constexpr (kMasked) x = _mm256_andnot_si256(LanesOutside<T>(x, lo, hi), x);
  return _mm256_xor_si256(x, sign_bits);
}

// Elements per chunk: a 64-bit lane accumulator adds at most 2^29 values
// below 2^32 before its chunk is folded, so no lane sum can wrap.
inline constexpr std::size_t kAvx2SumChunk = std::size_t{1} << 32;

/// Flipping the sign bit maps each B-bit value x to the unsigned x + 2^(B-1).
/// Every 64-bit lane is then split into its low and high unsigned 32-bit
/// halves, summed in separate lane accumulators (two vectors in flight),
/// and the bias comes off once: sum = lows + highs * 2^32 - n * 2^63 for
/// int64, lows + highs - n * 2^31 for int32 (two values per lane). kMasked
/// zeroes the values outside [lo, hi] before the flip.
template <ColumnValue T, bool kMasked>
AIDX_TARGET_AVX2 Int128 SumIntAvx2(const T* p, std::size_t n, T lo, T hi) {
  constexpr std::size_t kStep = 2 * 32 / sizeof(T);  // two vectors
  constexpr int kBits = 8 * sizeof(T);
  const __m256i sign_bits = Broadcast<T>(std::numeric_limits<T>::min());
  const __m256i low_half = _mm256_set1_epi64x(0xFFFFFFFF);
  const __m256i vlo = Broadcast<T>(lo);
  const __m256i vhi = Broadcast<T>(hi);
  Int128 sum = 0;
  std::size_t i = 0;
  while (n - i >= kStep) {
    const std::size_t end = i + std::min((n - i) / kStep * kStep, kAvx2SumChunk);
    __m256i low0 = _mm256_setzero_si256();
    __m256i low1 = low0;
    __m256i high0 = low0;
    __m256i high1 = low0;
    for (; i < end; i += kStep) {
      const __m256i x = LoadFlipped<T, kMasked>(p + i, vlo, vhi, sign_bits);
      const __m256i y = LoadFlipped<T, kMasked>(p + i + kStep / 2, vlo, vhi, sign_bits);
      low0 = _mm256_add_epi64(low0, _mm256_and_si256(x, low_half));
      low1 = _mm256_add_epi64(low1, _mm256_and_si256(y, low_half));
      high0 = _mm256_add_epi64(high0, _mm256_srli_epi64(x, 32));
      high1 = _mm256_add_epi64(high1, _mm256_srli_epi64(y, 32));
    }
    const Int128 highs = FoldLanes(_mm256_add_epi64(high0, high1));
    sum += FoldLanes(_mm256_add_epi64(low0, low1)) + (sizeof(T) == 8 ? highs << 32 : highs);
  }
  sum -= static_cast<Int128>(i) << (kBits - 1);
  for (; i < n; ++i) {
    if (!kMasked || (p[i] >= lo && p[i] <= hi)) sum += p[i];
  }
  return sum;
}

/// AVX2 form of SumValues for integer columns; callers check
/// SimdKernelAvailable() first.
template <ColumnValue T>
  requires std::is_integral_v<T>
Int128 SumValuesAvx2(std::span<const T> values, Int128 acc = 0) {
  return acc + SumIntAvx2<T, false>(values.data(), values.size(), T{0}, T{0});
}

template <ColumnValue T>
  requires std::is_integral_v<T>
Int128 SumValuesAvx2(std::span<const T> values, const RangePredicate<T>& pred,
                     Int128 acc = 0) {
  T lo{};
  T hi{};
  if (!InclusiveBounds(pred, &lo, &hi)) return acc;
  return acc + SumIntAvx2<T, true>(values.data(), values.size(), lo, hi);
}

#endif  // AIDX_SIMD_AVX2

/// The victim search's step: folds occurrence `i` of the value into the
/// lowest-rid position so far (`*best`, values.size() while none).
inline void TakeMatch(std::size_t i, std::span<const row_id_t> rids, std::size_t none,
                      std::size_t* best, std::size_t* seen) {
  if (*best == none || rids[i] < rids[*best]) *best = i;
  ++*seen;
}

/// Scalar victim search over positions [from, values.size()), continuing
/// from `*best` and `*seen`.
template <ColumnValue T>
void TakeMatchesScalar(std::span<const T> values, std::span<const row_id_t> rids,
                       T value, std::size_t matches, std::size_t from,
                       std::size_t* best, std::size_t* seen) {
  for (std::size_t i = from; i < values.size() && *seen < matches; ++i) {
    if (values[i] == value) TakeMatch(i, rids, values.size(), best, seen);
  }
}

/// Portable form of LowestRidPosition.
template <ColumnValue T>
std::size_t LowestRidPositionScalar(std::span<const T> values,
                                    std::span<const row_id_t> rids, T value,
                                    std::size_t matches) {
  std::size_t best = values.size();
  std::size_t seen = 0;
  TakeMatchesScalar(values, rids, value, matches, 0, &best, &seen);
  return best;
}

#if defined(AIDX_SIMD_AVX2)

/// Bit j set when lane j of the vector at `p` equals `needle`'s (lanes of
/// T's width).
template <ColumnValue T>
AIDX_TARGET_AVX2 inline unsigned EqualLanes(const T* p, __m256i needle) {
  const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  if constexpr (sizeof(T) == 8) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(x, needle))));
  } else {
    return static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(x, needle))));
  }
}

/// AVX2 form of LowestRidPosition for integer columns: one vector compare
/// per lane group, lane bits folded in position order; callers check
/// SimdKernelAvailable() first.
template <ColumnValue T>
  requires std::is_integral_v<T>
AIDX_TARGET_AVX2 std::size_t LowestRidPositionAvx2(std::span<const T> values,
                                                   std::span<const row_id_t> rids,
                                                   T value, std::size_t matches) {
  constexpr std::size_t kLanes = 32 / sizeof(T);
  const std::size_t n = values.size();
  const __m256i needle = Broadcast<T>(value);
  std::size_t best = n;
  std::size_t seen = 0;
  std::size_t i = 0;
  for (; n - i >= kLanes && seen < matches; i += kLanes) {
    // Lane bit j flags position i + j; take them in position order.
    for (unsigned lanes = EqualLanes<T>(values.data() + i, needle);
         lanes != 0 && seen < matches; lanes &= lanes - 1) {
      TakeMatch(i + static_cast<std::size_t>(__builtin_ctz(lanes)), rids, n, &best, &seen);
    }
  }
  TakeMatchesScalar(values, rids, value, matches, i, &best, &seen);
  return best;
}

#endif  // AIDX_SIMD_AVX2

}  // namespace internal

/// Adds every value to `acc` (see the exactness contract at the top).
template <ColumnValue T>
SumAcc<T> SumValues(std::span<const T> values, SumAcc<T> acc = {}) {
#if defined(AIDX_SIMD_AVX2)
  if constexpr (std::is_integral_v<T>) {
    if (internal::SimdKernelAvailable()) return internal::SumValuesAvx2<T>(values, acc);
  }
#endif
  return internal::SumValuesScalar<T>(values, acc);
}

/// Masked variant: adds the values matching `pred` to `acc`.
template <ColumnValue T>
SumAcc<T> SumValues(std::span<const T> values, const RangePredicate<T>& pred,
                    SumAcc<T> acc = {}) {
#if defined(AIDX_SIMD_AVX2)
  if constexpr (std::is_integral_v<T>) {
    if (internal::SimdKernelAvailable()) {
      return internal::SumValuesAvx2<T>(values, pred, acc);
    }
  }
#endif
  return internal::SumValuesScalar<T>(values, pred, acc);
}

/// The position of the lowest row id among the positions holding `value`
/// (rids[i] is the row id at position i); values.size() when none does.
/// Only the first `matches` occurrences in position order are considered:
/// pass the exact count an index already knows and the scan stops at the
/// last one, or leave the default and it reads the whole column.
template <ColumnValue T>
std::size_t LowestRidPosition(std::span<const T> values, std::span<const row_id_t> rids,
                              T value,
                              std::size_t matches = std::numeric_limits<std::size_t>::max()) {
#if defined(AIDX_SIMD_AVX2)
  if constexpr (std::is_integral_v<T>) {
    if (internal::SimdKernelAvailable()) {
      return internal::LowestRidPositionAvx2<T>(values, rids, value, matches);
    }
  }
#endif
  return internal::LowestRidPositionScalar<T>(values, rids, value, matches);
}

/// Adds at(0), ..., at(n - 1) to `acc` for values that are not contiguous
/// (row-id gathers, tuple payloads): staged through a small buffer into
/// SumValues, in order.
template <ColumnValue T, typename At>
SumAcc<T> SumEach(std::size_t n, At&& at, SumAcc<T> acc = {}) {
  std::array<T, 256> stage{};
  for (std::size_t i = 0; i < n; i += stage.size()) {
    const std::size_t m = std::min(stage.size(), n - i);
    for (std::size_t j = 0; j < m; ++j) stage[j] = at(i + j);
    acc = SumValues<T>(std::span<const T>(stage.data(), m), acc);
  }
  return acc;
}

/// Sums values matching the predicate (the aggregate the figures report).
template <ColumnValue T>
long double ScanSum(std::span<const T> values, const RangePredicate<T>& pred) {
  return RoundSum<T>(SumValues<T>(values, pred));
}

/// Collects the positions of matching values.
template <ColumnValue T>
void ScanPositions(std::span<const T> values, const RangePredicate<T>& pred,
                   std::vector<std::size_t>* out) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (pred.Matches(values[i])) out->push_back(i);
  }
}

/// Collects matching values themselves (materializing select).
template <ColumnValue T>
void ScanValues(std::span<const T> values, const RangePredicate<T>& pred,
                std::vector<T>* out) {
  for (const T v : values) {
    if (pred.Matches(v)) out->push_back(v);
  }
}

}  // namespace aidx
