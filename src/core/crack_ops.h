// The physical reorganization primitives of database cracking (CIDR 2007):
// crack-in-two and crack-in-three. These run inside the select operator —
// the defining move of adaptive indexing: the query operator itself
// reorganizes data.
//
// Both primitives optionally maintain a parallel payload array in tandem.
// The payload is a row id for cracker columns and a *tail value* for the
// cracker maps of sideways cracking (where the projected attribute travels
// with the selection attribute -- the self-organizing tuple reconstruction
// idea of SIGMOD 2009).
//
// ## Kernels
//
// Every strategy in this repo bottoms out in these partitioning loops, so
// their inner-loop shape *is* the system's hot path. Four interchangeable
// kernels implement the same multiset-partition contract (identical split
// points; element order within a side is unspecified, as everywhere in a
// cracked column):
//
//   kBranchy            The classic Hoare two-pointer sweep. Minimal
//                       instruction count, but every comparison is a
//                       data-dependent branch — on random data the branch
//                       predictor is wrong ~50% of the time, and the
//                       mispredict penalty dominates (Pirk et al., DaMoN
//                       2014, "Database cracking: fancy scan, not poor
//                       man's sort!").
//
//   kPredicated         Branch-free "hole passing": one value rides in a
//                       register, each step writes it to the side chosen by
//                       the comparison *result* (cursor arithmetic /
//                       cmov-style selects, no control dependency) and
//                       refills the register from the slot it opened.
//                       Exactly one store and two loads per element,
//                       tandem-payload capable, zero mispredicts.
//
//   kPredicatedUnrolled The same idea restructured around fixed-size
//                       blocks (BlockQuicksort-style): a tight, manually
//                       unrolled compare loop classifies a 64-element block
//                       into a flag buffer (the loop autovectorizes — no
//                       stores depend on the comparisons), a branch-free
//                       compaction turns flags into misplaced-element
//                       offsets, and misplaced pairs are swapped wholesale.
//
//   kSimd               Explicit intrinsics, two shapes. Value-only cracks
//                       (AVX2) partition each vector *in registers*:
//                       compare + movemask yields a lane mask, a 256-entry
//                       permutation LUT compacts below-lanes to the front,
//                       and the permuted vector is stored at both write
//                       frontiers (the vqsort/BlockQuicksort compaction-
//                       store partition, ~1 store amortized per element).
//                       Tandem cracks keep the blocked classify/swap
//                       scheme, with AVX2 movemask (or NEON bit-weighted
//                       compares + horizontal adds) building a 64-bit
//                       "below" mask per block and a byte-LUT turning mask
//                       bytes into packed misplaced-element offsets.
//                       Compile-time ISA selection via feature macros;
//                       runtime cpuid check (SimdKernelAvailable) falls
//                       back to kPredicatedUnrolled on hosts without AVX2.
//
//   kAuto               Not a kernel: resolves to the host-calibrated
//                       kernel for the element width at the dispatch point
//                       (src/core/kernel_autotune.h). This is the
//                       repo-wide default; with calibration disabled
//                       (AIDX_CALIBRATE=0) it resolves to
//                       kPredicatedUnrolled.
//
// Dispatch is piece-size aware: below a threshold the branchy sweep wins
// (predication's fixed per-element cost and the blocked kernel's setup lose
// to a handful of cheap, mostly-predictable branches), so the non-branchy
// kernels silently fall back on tiny pieces. The threshold defaults to the
// calibrated value (kPredicationMinPiece before/without calibration); the
// min_piece parameter pins it per call, which only the calibration sweep
// and tests do. bench_e12 measures the crossover.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "core/cut.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/simd.h"

namespace aidx {

/// Inner-loop implementation used by the crack primitives. One knob flips
/// it for every strategy (StrategyConfig::crack_kernel).
enum class CrackKernel : char {
  kBranchy,             // Hoare sweep, data-dependent branches (the classic)
  kPredicated,          // branch-free hole passing, cmov-style selects
  kPredicatedUnrolled,  // blocked + unrolled, autovectorizable compare loop
  kSimd,                // blocked + explicit AVX2/NEON classify, LUT compact
  kAuto,                // resolve via the startup calibration sweep
};

/// Number of concrete (measurable) kernels; kAuto resolves to one of these.
inline constexpr std::size_t kNumCrackKernels = 4;

inline const char* CrackKernelName(CrackKernel kernel) {
  switch (kernel) {
    case CrackKernel::kBranchy:
      return "branchy";
    case CrackKernel::kPredicated:
      return "predicated";
    case CrackKernel::kPredicatedUnrolled:
      return "unrolled";
    case CrackKernel::kSimd:
      return "simd";
    case CrackKernel::kAuto:
      return "auto";
  }
  return "?";
}

/// Display suffix for strategy names; comma-free so names land unquoted in
/// CSV headers. kAuto — the default — keeps the bare historical names
/// ("crack", "pcrack(8x4)", ...); every explicitly pinned kernel gets a
/// distinguishing suffix, including the branchy differential oracle, so no
/// two configs that differ in kernel ever alias in a figure.
inline const char* CrackKernelSuffix(CrackKernel kernel) {
  switch (kernel) {
    case CrackKernel::kBranchy:
      return "+branchy";
    case CrackKernel::kPredicated:
      return "+pred";
    case CrackKernel::kPredicatedUnrolled:
      return "+vec";
    case CrackKernel::kSimd:
      return "+simd";
    case CrackKernel::kAuto:
      return "";
  }
  return "?";
}

/// Compiled-in fallback for the piece-size dispatch threshold: pieces
/// smaller than this are cracked with the branchy kernel when no calibrated
/// value is available (calibration disabled or not yet run) and the caller
/// did not pin one. Value chosen from the bench_e12 piece-size sweep on the
/// dev box; kernel_autotune re-derives it per host.
inline constexpr std::size_t kPredicationMinPiece = 128;

/// Resolves kAuto to the host-calibrated kernel for `value_width`-byte
/// elements (identity for concrete kernels). Defined in kernel_autotune.cc;
/// the first kAuto resolution triggers the calibration sweep (cached
/// process-wide).
CrackKernel ResolveCrackKernel(CrackKernel kernel, std::size_t value_width);

/// The piece-size threshold below which non-branchy kernels fall back to
/// branchy, for `value_width`-byte elements: the calibrated value once the
/// sweep has run, kPredicationMinPiece otherwise. Never triggers
/// calibration itself (explicit-kernel callers shouldn't pay for a sweep).
/// Defined in kernel_autotune.cc.
std::size_t DefaultCrackMinPiece(std::size_t value_width);

/// Result of a three-way crack: [0, lower_end) | [lower_end, middle_end) |
/// [middle_end, n).
struct ThreeWaySplit {
  std::size_t lower_end = 0;
  std::size_t middle_end = 0;
};

namespace internal {

/// Loop-invariant "belongs strictly below the cut" predicate with the cut
/// kind hoisted to a template parameter, so the kernels' inner loops see a
/// single bare comparison instead of a branch on the kind.
template <ColumnValue T, CutKind kKind>
struct BelowPivot {
  T pivot;
  bool operator()(T v) const {
    if constexpr (kKind == CutKind::kLess) {
      return v < pivot;
    } else {
      return v <= pivot;
    }
  }
};

/// Unsigned integer with the same width as T, for mask-based selects.
template <std::size_t kBytes>
struct SizedUint;
template <>
struct SizedUint<1> { using type = std::uint8_t; };
template <>
struct SizedUint<2> { using type = std::uint16_t; };
template <>
struct SizedUint<4> { using type = std::uint32_t; };
template <>
struct SizedUint<8> { using type = std::uint64_t; };

/// cond ? if_true : if_false computed with mask arithmetic — compilers
/// happily turn a ternary whose arms differ in memory behaviour back into
/// a branch (defeating the whole point of predication), so the select is
/// spelled in a form that has no branch to recover. Types wider than any
/// machine integer (composite payloads, e.g. the tail+rid entries of
/// rid-carrying cracker maps) fall back to a plain ternary: only the
/// payload lane pays it, the value lane stays mask-selected.
template <typename T>
T BranchlessSelect(bool cond, T if_true, T if_false) {
  if constexpr (requires { typename SizedUint<sizeof(T)>::type; }) {
    using U = typename SizedUint<sizeof(T)>::type;
    const U mask = static_cast<U>(0) - static_cast<U>(cond);
    return std::bit_cast<T>(static_cast<U>(
        (std::bit_cast<U>(if_true) & mask) | (std::bit_cast<U>(if_false) & ~mask)));
  } else {
    return cond ? if_true : if_false;
  }
}

/// The classic branchy Hoare sweep: O(n) with at most n/2 swaps.
template <bool kTandem, ColumnValue T, typename Payload, typename BelowFn>
std::size_t CrackInTwoBranchyImpl(T* values, Payload* payloads, std::size_t n,
                                  BelowFn below) {
  std::size_t l = 0;
  std::size_t r = n;
  for (;;) {
    while (l < r && below(values[l])) ++l;
    while (l < r && !below(values[r - 1])) --r;
    if (l >= r) break;
    // values[l] is not-below and values[r-1] is below; l < r - 1 here.
    std::swap(values[l], values[r - 1]);
    if constexpr (kTandem) std::swap(payloads[l], payloads[r - 1]);
    ++l;
    --r;
  }
  return l;
}

/// Branch-free hole passing. Invariant at the loop head: [0, l) is below,
/// [r, n) is not-below, values[l] is a hole (its content is junk), and the
/// register value v is the one outstanding element awaiting placement; the
/// active window holds r - l elements (v plus values[l+1, r)). Each step
/// places v on the side its comparison selects and refills the register
/// from the end that shrank.
///
/// Two deliberate shapes keep this fast:
///  * selects are spelled as mask arithmetic (BranchlessSelect), because a
///    plain ternary whose arms differ in memory behaviour gets if-converted
///    back into a branch — re-creating the mispredicts predication exists
///    to remove;
///  * both refill candidates (values[l+1] / values[r-1]) are loaded at
///    addresses known from the *previous* iteration, so the loads issue
///    ahead of the comparison and stay off the loop's serial dependency
///    chain; only the one-cycle select consumes the comparison result.
template <bool kTandem, ColumnValue T, typename Payload, typename BelowFn>
std::size_t CrackInTwoPredicatedImpl(T* values, Payload* payloads, std::size_t n,
                                     BelowFn below) {
  if (n == 0) return 0;
  std::size_t l = 0;
  std::size_t r = n;
  T v = values[0];
  Payload pv{};
  if constexpr (kTandem) pv = payloads[0];
  while (r - l > 1) {
    // Refill candidates for both outcomes; r - l > 1 keeps both in the
    // window (they coincide when exactly two elements remain). On the
    // below side the candidate slot becomes the new hole; on the other
    // side it is the slot v is about to overwrite, read before the store.
    const T cand_left = values[l + 1];
    const T cand_right = values[r - 1];
    const std::size_t is_below = static_cast<std::size_t>(below(v));
    // dst = is_below ? l : r - 1, as pure mask arithmetic (is_below - 1 is
    // 0 or all-ones).
    const std::size_t dst = l + ((r - 1 - l) & (is_below - 1));
    values[dst] = v;
    v = BranchlessSelect(is_below != 0, cand_left, cand_right);
    if constexpr (kTandem) {
      const Payload pcand_left = payloads[l + 1];
      const Payload pcand_right = payloads[r - 1];
      payloads[dst] = pv;
      pv = BranchlessSelect(is_below != 0, pcand_left, pcand_right);
    }
    l += is_below;
    r -= is_below ^ 1;
  }
  values[l] = v;
  if constexpr (kTandem) payloads[l] = pv;
  return l + (below(v) ? 1 : 0);
}

/// Values per block of the blocked kernels; offsets must fit in uint8_t and
/// the per-block "below" masks of the SIMD classifier in uint64_t.
inline constexpr std::size_t kCrackBlock = 64;

/// Classifies `block[0, kCrackBlock)` through `below`, recording the
/// offsets where `misplaced` holds (below == !kWantBelow). The compare
/// loop writes flags only — no store depends on a comparison — so it
/// autovectorizes; the compaction is branch-free and manually unrolled.
/// Returns the number of offsets recorded.
template <bool kWantBelow, ColumnValue T, typename BelowFn>
std::size_t ClassifyBlock(const T* block, BelowFn below, std::uint8_t* offsets) {
  std::uint8_t misplaced[kCrackBlock];
  for (std::size_t i = 0; i < kCrackBlock; i += 8) {
    misplaced[i] = below(block[i]) != kWantBelow;
    misplaced[i + 1] = below(block[i + 1]) != kWantBelow;
    misplaced[i + 2] = below(block[i + 2]) != kWantBelow;
    misplaced[i + 3] = below(block[i + 3]) != kWantBelow;
    misplaced[i + 4] = below(block[i + 4]) != kWantBelow;
    misplaced[i + 5] = below(block[i + 5]) != kWantBelow;
    misplaced[i + 6] = below(block[i + 6]) != kWantBelow;
    misplaced[i + 7] = below(block[i + 7]) != kWantBelow;
  }
  std::size_t num = 0;
  for (std::size_t i = 0; i < kCrackBlock; i += 4) {
    offsets[num] = static_cast<std::uint8_t>(i);
    num += misplaced[i];
    offsets[num] = static_cast<std::uint8_t>(i + 1);
    num += misplaced[i + 1];
    offsets[num] = static_cast<std::uint8_t>(i + 2);
    num += misplaced[i + 2];
    offsets[num] = static_cast<std::uint8_t>(i + 3);
    num += misplaced[i + 3];
  }
  return num;
}

// ---------------------------------------------------------------------------
// SIMD classify/compact (the kSimd kernel's inner step).
//
// BelowMask64 returns a 64-bit mask, bit i set iff below(block[i]) — built
// from vector compares + movemask on AVX2 and bit-weighted compares +
// horizontal adds on NEON. MaskToOffsets compacts a misplaced-mask into
// packed byte offsets via a 256-entry LUT: each mask byte yields up to 8
// offsets with one table load, one add, one 8-byte store and a popcount —
// no per-element work at all.
// ---------------------------------------------------------------------------

#if defined(AIDX_SIMD_AVX2)

AIDX_TARGET_AVX2 inline std::uint64_t BelowMask64(const std::int32_t* block,
                                                  std::int32_t pivot,
                                                  bool less_eq) {
  const __m256i p = _mm256_set1_epi32(pivot);
  std::uint64_t mask = 0;
  for (unsigned v = 0; v < kCrackBlock / 8; ++v) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block) + v);
    // less: pivot > x. less-eq: NOT (x > pivot), inverted below.
    const __m256i cmp =
        less_eq ? _mm256_cmpgt_epi32(x, p) : _mm256_cmpgt_epi32(p, x);
    std::uint64_t bits =
        static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(cmp))) &
        0xFFu;
    if (less_eq) bits ^= 0xFFu;
    mask |= bits << (8 * v);
  }
  return mask;
}

AIDX_TARGET_AVX2 inline std::uint64_t BelowMask64(const std::int64_t* block,
                                                  std::int64_t pivot,
                                                  bool less_eq) {
  const __m256i p = _mm256_set1_epi64x(pivot);
  std::uint64_t mask = 0;
  for (unsigned v = 0; v < kCrackBlock / 4; ++v) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block) + v);
    const __m256i cmp =
        less_eq ? _mm256_cmpgt_epi64(x, p) : _mm256_cmpgt_epi64(p, x);
    std::uint64_t bits =
        static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(cmp))) &
        0xFu;
    if (less_eq) bits ^= 0xFu;
    mask |= bits << (4 * v);
  }
  return mask;
}

AIDX_TARGET_AVX2 inline std::uint64_t BelowMask64(const double* block,
                                                  double pivot, bool less_eq) {
  const __m256d p = _mm256_set1_pd(pivot);
  std::uint64_t mask = 0;
  for (unsigned v = 0; v < kCrackBlock / 4; ++v) {
    const __m256d x = _mm256_loadu_pd(block + 4 * v);
    // Ordered-quiet compares match the scalar operators: NaN is never
    // "below", exactly like `v < pivot` / `v <= pivot`.
    const __m256d cmp = less_eq ? _mm256_cmp_pd(x, p, _CMP_LE_OQ)
                                : _mm256_cmp_pd(x, p, _CMP_LT_OQ);
    const std::uint64_t bits =
        static_cast<std::uint32_t>(_mm256_movemask_pd(cmp)) & 0xFu;
    mask |= bits << (4 * v);
  }
  return mask;
}

#elif defined(AIDX_SIMD_NEON)

inline std::uint64_t BelowMask64(const std::int32_t* block, std::int32_t pivot,
                                 bool less_eq) {
  static constexpr std::uint32_t kWeights[4] = {1u, 2u, 4u, 8u};
  const int32x4_t p = vdupq_n_s32(pivot);
  const uint32x4_t w = vld1q_u32(kWeights);
  std::uint64_t mask = 0;
  for (unsigned v = 0; v < kCrackBlock / 4; ++v) {
    const int32x4_t x = vld1q_s32(block + 4 * v);
    const uint32x4_t cmp = less_eq ? vcleq_s32(x, p) : vcltq_s32(x, p);
    mask |= static_cast<std::uint64_t>(vaddvq_u32(vandq_u32(cmp, w)))
            << (4 * v);
  }
  return mask;
}

inline std::uint64_t BelowMask64(const std::int64_t* block, std::int64_t pivot,
                                 bool less_eq) {
  static constexpr std::uint64_t kWeights[2] = {1u, 2u};
  const int64x2_t p = vdupq_n_s64(pivot);
  const uint64x2_t w = vld1q_u64(kWeights);
  std::uint64_t mask = 0;
  for (unsigned v = 0; v < kCrackBlock / 2; ++v) {
    const int64x2_t x = vld1q_s64(block + 2 * v);
    const uint64x2_t cmp = less_eq ? vcleq_s64(x, p) : vcltq_s64(x, p);
    mask |= vaddvq_u64(vandq_u64(cmp, w)) << (2 * v);
  }
  return mask;
}

inline std::uint64_t BelowMask64(const double* block, double pivot,
                                 bool less_eq) {
  static constexpr std::uint64_t kWeights[2] = {1u, 2u};
  const float64x2_t p = vdupq_n_f64(pivot);
  const uint64x2_t w = vld1q_u64(kWeights);
  std::uint64_t mask = 0;
  for (unsigned v = 0; v < kCrackBlock / 2; ++v) {
    const float64x2_t x = vld1q_f64(block + 2 * v);
    const uint64x2_t cmp = less_eq ? vcleq_f64(x, p) : vcltq_f64(x, p);
    mask |= vaddvq_u64(vandq_u64(cmp, w)) << (2 * v);
  }
  return mask;
}

#else

/// Scalar stand-in so the kSimd plumbing compiles on ISAs without an
/// intrinsic path; SimdKernelAvailable() returns false there, so the
/// dispatcher never actually routes through it.
template <ColumnValue T>
std::uint64_t BelowMask64(const T* block, T pivot, bool less_eq) {
  std::uint64_t mask = 0;
  for (unsigned i = 0; i < kCrackBlock; ++i) {
    const bool below = less_eq ? (block[i] <= pivot) : (block[i] < pivot);
    mask |= static_cast<std::uint64_t>(below) << i;
  }
  return mask;
}

#endif  // AIDX_SIMD_AVX2 / AIDX_SIMD_NEON

/// 256-entry LUT: entry b packs the positions of b's set bits into one byte
/// per position, low to high. MaskToOffsets shifts each packed group to its
/// chunk base with a single multiply-add.
inline constexpr std::array<std::uint64_t, 256> kPackedBitPositions = [] {
  std::array<std::uint64_t, 256> lut{};
  for (unsigned byte = 0; byte < 256; ++byte) {
    std::uint64_t packed = 0;
    unsigned count = 0;
    for (unsigned bit = 0; bit < 8; ++bit) {
      if (byte & (1u << bit)) {
        packed |= static_cast<std::uint64_t>(bit) << (8 * count);
        ++count;
      }
    }
    lut[byte] = packed;
  }
  return lut;
}();

/// Compacts the set-bit positions of `mask` into `offsets`, ascending.
/// Returns the number of offsets written. Each 8-byte store may spill up to
/// 8 bytes of garbage past the last real offset, so the destination buffer
/// needs kCrackBlock + 8 bytes of capacity.
inline std::size_t MaskToOffsets(std::uint64_t mask, std::uint8_t* offsets) {
  std::size_t num = 0;
  for (unsigned chunk = 0; chunk < 8; ++chunk) {
    const auto byte = static_cast<std::uint8_t>(mask >> (8 * chunk));
    const std::uint64_t packed =
        kPackedBitPositions[byte] +
        0x0101010101010101ULL * static_cast<std::uint64_t>(8 * chunk);
    std::memcpy(offsets + num, &packed, sizeof packed);
    num += static_cast<std::size_t>(std::popcount(byte));
  }
  return num;
}

#if defined(AIDX_SIMD_AVX2)

// ---------------------------------------------------------------------------
// AVX2 compaction-store partition (the kSimd kernel's value-only fast path).
//
// Instead of classifying blocks and swapping misplaced pairs, each loaded
// vector is partitioned *in registers*: a compare+movemask yields the lane
// mask, a 256-entry permutation LUT compacts below-lanes to the front, and
// the permuted vector is stored at both write frontiers — the left store's
// first popcount lanes and the right store's remaining lanes are the valid
// halves, and every lane gets overwritten by a later store of its side. Two
// edge vectors are buffered in registers up front so the double-ended
// stores always land in vacated space (the BlockQuicksort/vqsort scheme).
// ---------------------------------------------------------------------------

/// Permutation tables for the compaction stores: entry m of the 8-lane table
/// is a permutevar8x32 index vector moving the lanes whose bit is set in m
/// to the front (ascending) and the rest to the back (ascending). The
/// 4-lane table is the same for 64-bit elements viewed as 32-bit lane pairs.
alignas(32) inline constexpr std::array<std::array<std::int32_t, 8>, 256>
    kCompactPerm8 = [] {
      std::array<std::array<std::int32_t, 8>, 256> lut{};
      for (unsigned mask = 0; mask < 256; ++mask) {
        unsigned slot = 0;
        for (unsigned lane = 0; lane < 8; ++lane) {
          if (mask & (1u << lane)) lut[mask][slot++] = static_cast<std::int32_t>(lane);
        }
        for (unsigned lane = 0; lane < 8; ++lane) {
          if (!(mask & (1u << lane))) lut[mask][slot++] = static_cast<std::int32_t>(lane);
        }
      }
      return lut;
    }();

alignas(32) inline constexpr std::array<std::array<std::int32_t, 8>, 16>
    kCompactPerm4 = [] {
      std::array<std::array<std::int32_t, 8>, 16> lut{};
      for (unsigned mask = 0; mask < 16; ++mask) {
        unsigned slot = 0;
        for (unsigned lane = 0; lane < 4; ++lane) {
          if (mask & (1u << lane)) {
            lut[mask][slot++] = static_cast<std::int32_t>(2 * lane);
            lut[mask][slot++] = static_cast<std::int32_t>(2 * lane + 1);
          }
        }
        for (unsigned lane = 0; lane < 4; ++lane) {
          if (!(mask & (1u << lane))) {
            lut[mask][slot++] = static_cast<std::int32_t>(2 * lane);
            lut[mask][slot++] = static_cast<std::int32_t>(2 * lane + 1);
          }
        }
      }
      return lut;
    }();

/// Per-vector lane mask: bit i set iff below(lane i). One compare + one
/// movemask; the less-eq flavour compares the other direction and inverts.
AIDX_TARGET_AVX2 inline unsigned LanesBelow(__m256i x, std::int32_t pivot,
                                            bool less_eq) {
  const __m256i p = _mm256_set1_epi32(pivot);
  if (less_eq) {
    const auto above = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(x, p))));
    return ~above & 0xFFu;
  }
  return static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(p, x))));
}

AIDX_TARGET_AVX2 inline unsigned LanesBelow(__m256i x, std::int64_t pivot,
                                            bool less_eq) {
  const __m256i p = _mm256_set1_epi64x(pivot);
  if (less_eq) {
    const auto above = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(x, p))));
    return ~above & 0xFu;
  }
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(p, x))));
}

AIDX_TARGET_AVX2 inline unsigned LanesBelow(__m256i x, double pivot,
                                            bool less_eq) {
  // Ordered-quiet compares match the scalar operators: NaN is never below.
  const __m256d xd = _mm256_castsi256_pd(x);
  const __m256d p = _mm256_set1_pd(pivot);
  const __m256d cmp = less_eq ? _mm256_cmp_pd(xd, p, _CMP_LE_OQ)
                              : _mm256_cmp_pd(xd, p, _CMP_LT_OQ);
  return static_cast<unsigned>(_mm256_movemask_pd(cmp)) & 0xFu;
}

/// Moves the lanes selected by `mask` to the vector's front, the rest to the
/// back, both in ascending lane order.
template <std::size_t kLanes>
AIDX_TARGET_AVX2 inline __m256i CompactLanes(__m256i x, unsigned mask) {
  const std::int32_t* entry =
      kLanes == 8 ? kCompactPerm8[mask].data() : kCompactPerm4[mask].data();
  const __m256i perm = _mm256_load_si256(reinterpret_cast<const __m256i*>(entry));
  return _mm256_permutevar8x32_epi32(x, perm);
}

/// Partitions one in-register vector into the double-ended write frontiers.
template <ColumnValue T>
AIDX_TARGET_AVX2 inline void PartitionStoreVec(T* values, __m256i x, T pivot,
                                               bool less_eq, std::size_t* wl,
                                               std::size_t* wr) {
  constexpr std::size_t kLanes = 32 / sizeof(T);
  const unsigned mask = LanesBelow(x, pivot, less_eq);
  const __m256i y = CompactLanes<kLanes>(x, mask);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(values + *wl), y);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(values + (*wr - kLanes)), y);
  const auto below = static_cast<std::size_t>(std::popcount(mask));
  *wl += below;
  *wr -= kLanes - below;
}

/// In-place vectorized partition of `values[0, n)`; n must be a multiple of
/// the lane count and at least four vectors. Always reads from whichever end
/// has less vacated space, which keeps every store inside vacated space
/// (free space is invariantly four vectors: the buffered edge vectors).
/// Reading *two* vectors per side decision matters: the decision is a
/// data-dependent branch (it follows the running below-counts), and at one
/// vector per decision its mispredicts dominate the narrow 4-lane kernels.
template <ColumnValue T>
AIDX_TARGET_AVX2 std::size_t SimdPartitionMain(T* values, std::size_t n, T pivot,
                                               bool less_eq) {
  constexpr std::size_t kLanes = 32 / sizeof(T);
  const __m256i first0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values));
  const __m256i first1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + kLanes));
  const __m256i last0 = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(values + n - 2 * kLanes));
  const __m256i last1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + n - kLanes));
  std::size_t wl = 0;
  std::size_t wr = n;
  std::size_t rl = 2 * kLanes;
  std::size_t rr = n - 2 * kLanes;
  if (((rr - rl) / kLanes) % 2 != 0) {
    // Odd vector count in the window: retire one up front so the main loop
    // can consume exact pairs.
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + rl));
    rl += kLanes;
    PartitionStoreVec(values, x, pivot, less_eq, &wl, &wr);
  }
  while (rl < rr) {
    const T* src;
    if (rl - wl <= wr - rr) {
      src = values + rl;
      rl += 2 * kLanes;
    } else {
      rr -= 2 * kLanes;
      src = values + rr;
    }
    const __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
    const __m256i x1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + kLanes));
    PartitionStoreVec(values, x0, pivot, less_eq, &wl, &wr);
    PartitionStoreVec(values, x1, pivot, less_eq, &wl, &wr);
  }
  PartitionStoreVec(values, first0, pivot, less_eq, &wl, &wr);
  PartitionStoreVec(values, first1, pivot, less_eq, &wl, &wr);
  PartitionStoreVec(values, last0, pivot, less_eq, &wl, &wr);
  PartitionStoreVec(values, last1, pivot, less_eq, &wl, &wr);
  AIDX_DCHECK(wl == wr);
  return wl;
}

/// Block size of the SIMD crack-in-three: bigger than the swap-kernel block
/// so the per-block bulk moves amortize better; three stack buffers of this
/// size is still well under a page.
inline constexpr std::size_t kSimdThreeBlock = 256;

/// Classifies one kSimdThreeBlock block against both cuts and compacts the
/// three regions into caller buffers (each sized kSimdThreeBlock + 8: every
/// compaction store writes a full vector, so up to a vector of garbage
/// spills past the last real element). Lanes claimed by A are never
/// double-counted into C even for degenerate cut pairs, mirroring the
/// scalar kernels' A-first classification.
template <ColumnValue T>
AIDX_TARGET_AVX2 void SimdClassifyThreeBlock(const T* block, T lo_pivot,
                                             bool lo_le, T hi_pivot, bool hi_le,
                                             T* abuf, T* bbuf, T* cbuf,
                                             std::size_t* na_out,
                                             std::size_t* nb_out) {
  constexpr std::size_t kLanes = 32 / sizeof(T);
  constexpr unsigned kAll = (1u << kLanes) - 1u;
  std::size_t na = 0;
  std::size_t nb = 0;
  std::size_t nc = 0;
  for (std::size_t c = 0; c < kSimdThreeBlock; c += kLanes) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + c));
    const unsigned lo_m = LanesBelow(x, lo_pivot, lo_le);
    const unsigned hi_m = LanesBelow(x, hi_pivot, hi_le);
    const unsigned am = lo_m;
    const unsigned bm = hi_m & ~lo_m & kAll;
    const unsigned cm = ~(hi_m | lo_m) & kAll;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(abuf + na),
                        CompactLanes<kLanes>(x, am));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bbuf + nb),
                        CompactLanes<kLanes>(x, bm));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cbuf + nc),
                        CompactLanes<kLanes>(x, cm));
    na += static_cast<std::size_t>(std::popcount(am));
    nb += static_cast<std::size_t>(std::popcount(bm));
    nc += static_cast<std::size_t>(std::popcount(cm));
  }
  *na_out = na;
  *nb_out = nb;
}

#endif  // AIDX_SIMD_AVX2

/// Classifier plug-ins for the blocked kernel: given a full kCrackBlock
/// block, record the offsets of elements misplaced for a kWantBelow side
/// and return how many there are.
template <ColumnValue T, typename BelowFn>
struct ScalarClassifier {
  BelowFn below;
  template <bool kWantBelow>
  std::size_t Classify(const T* block, std::uint8_t* offsets) const {
    return ClassifyBlock<kWantBelow>(block, below, offsets);
  }
};

template <ColumnValue T, CutKind kKind>
struct SimdClassifier {
  T pivot;
  template <bool kWantBelow>
  std::size_t Classify(const T* block, std::uint8_t* offsets) const {
    std::uint64_t misplaced = BelowMask64(block, pivot, kKind == CutKind::kLessEq);
    // Misplaced on the below-seeking side means NOT below; the block is
    // exactly 64 wide, so plain complement flips all and only valid lanes.
    if constexpr (kWantBelow) misplaced = ~misplaced;
    return MaskToOffsets(misplaced, offsets);
  }
};

/// Blocked branch-free partition (the BlockQuicksort scheme): classify one
/// 64-value block per side, swap the misplaced pairs wholesale, retire
/// whichever block came out clean. The remainder (< 2 blocks, plus at most
/// one partially consumed block whose classification we discard — cheaper
/// to rescan than to splice) finishes with the scalar predicated kernel.
/// The classify/compact step is pluggable (scalar flags vs SIMD mask+LUT).
template <bool kTandem, ColumnValue T, typename Payload, typename BelowFn,
          typename Classifier>
std::size_t CrackInTwoBlockedImpl(T* values, Payload* payloads, std::size_t n,
                                  BelowFn below, const Classifier& classifier) {
  constexpr std::size_t kBlock = kCrackBlock;
  std::size_t l = 0;
  std::size_t r = n;
  // +8 slack: the SIMD compaction stores whole 8-byte groups and may write
  // up to 8 bytes past the last real offset.
  std::uint8_t offsets_l[kBlock + 8];
  std::uint8_t offsets_r[kBlock + 8];
  std::size_t num_l = 0, num_r = 0;    // offsets still unconsumed per side
  std::size_t start_l = 0, start_r = 0;  // first unconsumed offset per side
  while (r - l >= 2 * kBlock) {
    if (num_l == 0) {
      start_l = 0;
      num_l = classifier.template Classify</*kWantBelow=*/true>(values + l,
                                                                offsets_l);
    }
    if (num_r == 0) {
      start_r = 0;
      // The right block is values[r - kBlock, r); record offsets from its
      // high end so `r - 1 - offset` addresses the element.
      std::uint8_t raw[kBlock + 8];
      const std::size_t count = classifier.template Classify</*kWantBelow=*/false>(
          values + (r - kBlock), raw);
      for (std::size_t j = 0; j < count; ++j) {
        offsets_r[j] = static_cast<std::uint8_t>(kBlock - 1 - raw[count - 1 - j]);
      }
      num_r = count;
    }
    const std::size_t num = std::min(num_l, num_r);
    for (std::size_t j = 0; j < num; ++j) {
      const std::size_t a = l + offsets_l[start_l + j];
      const std::size_t b = r - 1 - offsets_r[start_r + j];
      std::swap(values[a], values[b]);
      if constexpr (kTandem) std::swap(payloads[a], payloads[b]);
    }
    num_l -= num;
    num_r -= num;
    start_l += num;
    start_r += num;
    if (num_l == 0) l += kBlock;
    if (num_r == 0) r -= kBlock;
  }
  // Scalar tail over [l, r): correct regardless of any discarded partial
  // classification, since the window's content is a valid sub-multiset.
  Payload* tail_payloads = nullptr;
  if constexpr (kTandem) tail_payloads = payloads + l;
  return l + CrackInTwoPredicatedImpl<kTandem>(values + l, tail_payloads, r - l,
                                               below);
}

#if defined(AIDX_SIMD_AVX2)

/// kSimd crack-in-two without a payload: the vectorized partition over the
/// largest whole-vector prefix, then a scalar insertion sweep folds the
/// (sub-vector) tail into the split.
template <ColumnValue T, CutKind kKind>
std::size_t CrackInTwoSimdValuesOnly(T* values, std::size_t n,
                                     BelowPivot<T, kKind> below) {
  constexpr std::size_t kLanes = 32 / sizeof(T);
  std::size_t split = 0;
  std::size_t done = 0;
  const std::size_t main = n & ~(kLanes - 1);
  if (main >= 4 * kLanes) {
    split = SimdPartitionMain(values, main, below.pivot,
                              kKind == CutKind::kLessEq);
    done = main;
  }
  for (std::size_t i = done; i < n; ++i) {
    if (below(values[i])) {
      std::swap(values[i], values[split]);
      ++split;
    }
  }
  return split;
}

#endif  // AIDX_SIMD_AVX2

/// Picks the implementation for one (kernel, tandem) combination. `kernel`
/// must already be concrete (kAuto resolved by the public entry points).
template <ColumnValue T, typename Payload, CutKind kKind>
std::size_t CrackInTwoWithBelow(std::span<T> values, std::span<Payload> payloads,
                                BelowPivot<T, kKind> below, CrackKernel kernel,
                                std::size_t min_piece) {
  T* v = values.data();
  const std::size_t n = values.size();
  if (kernel != CrackKernel::kBranchy) {
    if (min_piece == 0) min_piece = DefaultCrackMinPiece(sizeof(T));
    if (n < min_piece) kernel = CrackKernel::kBranchy;
  }
  if (kernel == CrackKernel::kBranchy) {
    return payloads.empty()
               ? CrackInTwoBranchyImpl<false>(v, static_cast<Payload*>(nullptr), n,
                                              below)
               : CrackInTwoBranchyImpl<true>(v, payloads.data(), n, below);
  }
  if (kernel == CrackKernel::kPredicated) {
    return payloads.empty()
               ? CrackInTwoPredicatedImpl<false>(v, static_cast<Payload*>(nullptr),
                                                 n, below)
               : CrackInTwoPredicatedImpl<true>(v, payloads.data(), n, below);
  }
  if (kernel == CrackKernel::kSimd && SimdKernelAvailable()) {
#if defined(AIDX_SIMD_AVX2)
    // Value-only cracks take the compaction-store partition; tandem cracks
    // keep the blocked scheme (payloads can't ride a lane permutation).
    if (payloads.empty()) return CrackInTwoSimdValuesOnly(v, n, below);
#endif
    const SimdClassifier<T, kKind> classifier{below.pivot};
    return payloads.empty()
               ? CrackInTwoBlockedImpl<false>(v, static_cast<Payload*>(nullptr), n,
                                              below, classifier)
               : CrackInTwoBlockedImpl<true>(v, payloads.data(), n, below,
                                             classifier);
  }
  // kPredicatedUnrolled, or kSimd on a host without a usable vector ISA.
  const ScalarClassifier<T, BelowPivot<T, kKind>> classifier{below};
  return payloads.empty()
             ? CrackInTwoBlockedImpl<false>(v, static_cast<Payload*>(nullptr), n,
                                            below, classifier)
             : CrackInTwoBlockedImpl<true>(v, payloads.data(), n, below,
                                           classifier);
}

/// Single-pass predicated crack-in-three: one left-to-right sweep with two
/// boundary cursors. Invariant at the loop head: [0, a) is region A,
/// [a, b) region B, [b, m) region C. Each step classifies v = values[m]
/// once against both cuts and rotates the three boundary slots branch-free:
/// the first C element moves to the sweep front, the first B element to the
/// C front, and v drops into whichever region front it belongs to — the
/// destination write happens last, so it wins every aliasing case (a == b,
/// b == m, a == b == m). ~3 loads + 3 stores per element, all from
/// addresses known at iteration start (off the critical path), zero
/// mispredicts — versus two full passes for the 2-way decomposition.
///
/// The trailing cursors let a caller resume the sweep mid-array: the SIMD
/// block kernel processes whole blocks and hands the sub-block tail here
/// with its (a, b, m) state, which is exactly this loop's invariant.
template <bool kTandem, ColumnValue T, typename Payload, CutKind kLoKind,
          CutKind kHiKind>
ThreeWaySplit CrackInThreeSinglePassImpl(T* values, Payload* payloads,
                                         std::size_t n,
                                         BelowPivot<T, kLoKind> below_lo,
                                         BelowPivot<T, kHiKind> below_hi,
                                         std::size_t a = 0, std::size_t b = 0,
                                         std::size_t start = 0) {
  for (std::size_t m = start; m < n; ++m) {
    const T v = values[m];
    const T t_a = values[a];
    const T t_b = values[b];
    const bool is_a = below_lo(v);
    const bool is_ab = below_hi(v);
    values[m] = BranchlessSelect(is_ab, t_b, v);
    values[b] = BranchlessSelect(is_a, t_a, t_b);
    const std::size_t dst =
        BranchlessSelect(is_a, a, BranchlessSelect(is_ab, b, m));
    values[dst] = v;
    if constexpr (kTandem) {
      const Payload pv = payloads[m];
      const Payload pt_a = payloads[a];
      const Payload pt_b = payloads[b];
      payloads[m] = BranchlessSelect(is_ab, pt_b, pv);
      payloads[b] = BranchlessSelect(is_a, pt_a, pt_b);
      payloads[dst] = pv;
    }
    a += static_cast<std::size_t>(is_a);
    b += static_cast<std::size_t>(is_ab);
  }
  return {a, b};
}

#if defined(AIDX_SIMD_AVX2)

/// kSimd crack-in-three without a payload: a double-ended single pass. Per
/// block, SIMD-classify into three compacted buffers, then grow A and B
/// from the left end and C from the *right* end of the whole-block region —
/// pieces are unordered, so C built back-to-front is as good as any order,
/// and it means growing C never displaces anything. The only relocation is
/// B's displaced prefix (min(na, |B|) elements) sliding to B's other end.
/// Blocks are consumed from whichever side of the unseen window has less
/// vacated space — the same invariant as the vectorized two-way partition
/// (two blocks buffered up front == two blocks of free space, always
/// enough for the side chosen). The sub-block tail finishes on the scalar
/// rotation, which picks up the (a, b, m) cursors unchanged.
template <ColumnValue T, CutKind kLoKind, CutKind kHiKind>
ThreeWaySplit CrackInThreeSimdValuesOnly(T* values, std::size_t n,
                                         BelowPivot<T, kLoKind> below_lo,
                                         BelowPivot<T, kHiKind> below_hi) {
  constexpr std::size_t kBlock = kSimdThreeBlock;
  std::size_t a = 0;  // end of region A
  std::size_t b = 0;  // end of region B
  std::size_t m = 0;  // end of region C (for the scalar tail's invariant)
  if (n >= 2 * kBlock) {
    const std::size_t main = (n / kBlock) * kBlock;
    alignas(32) T first_block[kBlock];
    alignas(32) T last_block[kBlock];
    std::memcpy(first_block, values, kBlock * sizeof(T));
    std::memcpy(last_block, values + main - kBlock, kBlock * sizeof(T));
    std::size_t rl = kBlock;        // unseen window [rl, rr)
    std::size_t rr = main - kBlock;
    std::size_t z = main;           // start of region C, growing downward
    alignas(32) T abuf[kBlock + 8];
    alignas(32) T bbuf[kBlock + 8];
    alignas(32) T cbuf[kBlock + 8];
    const auto insert = [&](const T* block) {
      std::size_t na = 0;
      std::size_t nb = 0;
      SimdClassifyThreeBlock(block, below_lo.pivot, kLoKind == CutKind::kLessEq,
                             below_hi.pivot, kHiKind == CutKind::kLessEq, abuf,
                             bbuf, cbuf, &na, &nb);
      const std::size_t nc = kBlock - na - nb;
      const std::size_t kb = std::min(na, b - a);
      std::memcpy(values + b + na - kb, values + a, kb * sizeof(T));
      std::memcpy(values + a, abuf, na * sizeof(T));
      std::memcpy(values + b + na, bbuf, nb * sizeof(T));
      std::memcpy(values + z - nc, cbuf, nc * sizeof(T));
      a += na;
      b += na + nb;
      z -= nc;
    };
    while (rl < rr) {
      if (rl - b <= z - rr) {
        insert(values + rl);
        rl += kBlock;
      } else {
        rr -= kBlock;
        insert(values + rr);
      }
    }
    insert(first_block);
    insert(last_block);
    AIDX_DCHECK(b == z);
    m = main;
  }
  return CrackInThreeSinglePassImpl<false, T, row_id_t>(
      values, nullptr, n, below_lo, below_hi, a, b, m);
}

#endif  // AIDX_SIMD_AVX2

/// Expands the runtime cut kinds into the four static combinations the
/// single-pass kernels are compiled for, and picks the block-SIMD or scalar
/// sweep. `kernel` must already be concrete.
template <ColumnValue T, typename Payload>
ThreeWaySplit CrackInThreeSinglePass(std::span<T> values,
                                     std::span<Payload> payloads,
                                     const Cut<T>& lo_cut,
                                     const Cut<T>& hi_cut,
                                     [[maybe_unused]] CrackKernel kernel) {
  const auto run = [&](auto below_lo, auto below_hi) {
    if (!payloads.empty()) {
      return CrackInThreeSinglePassImpl<true>(values.data(), payloads.data(),
                                              values.size(), below_lo,
                                              below_hi);
    }
#if defined(AIDX_SIMD_AVX2)
    if (kernel == CrackKernel::kSimd && SimdKernelAvailable()) {
      return CrackInThreeSimdValuesOnly(values.data(), values.size(), below_lo,
                                        below_hi);
    }
#endif
    return CrackInThreeSinglePassImpl<false>(values.data(),
                                             static_cast<Payload*>(nullptr),
                                             values.size(), below_lo, below_hi);
  };
  if (lo_cut.kind == CutKind::kLess) {
    if (hi_cut.kind == CutKind::kLess) {
      return run(BelowPivot<T, CutKind::kLess>{lo_cut.value},
                 BelowPivot<T, CutKind::kLess>{hi_cut.value});
    }
    return run(BelowPivot<T, CutKind::kLess>{lo_cut.value},
               BelowPivot<T, CutKind::kLessEq>{hi_cut.value});
  }
  if (hi_cut.kind == CutKind::kLess) {
    return run(BelowPivot<T, CutKind::kLessEq>{lo_cut.value},
               BelowPivot<T, CutKind::kLess>{hi_cut.value});
  }
  return run(BelowPivot<T, CutKind::kLessEq>{lo_cut.value},
             BelowPivot<T, CutKind::kLessEq>{hi_cut.value});
}

}  // namespace internal

/// Partitions `values` (and `row_ids` in tandem when non-empty) around `cut`
/// using `kernel` (see the kernel table in the file comment). kAuto resolves
/// to the host-calibrated kernel here — this is the single point of truth,
/// so every strategy wrapper can pass kAuto through unchanged. Pieces
/// smaller than `min_piece` (0 = the calibrated process default) fall back
/// to the branchy sweep.
///
/// Returns the split point m such that Below(cut) holds exactly for
/// [0, m) and fails for [m, n). O(n), no allocation. All kernels preserve
/// the multiset and produce the same m; the order *within* each side is
/// kernel-specific (callers never rely on it — pieces are unordered).
template <ColumnValue T, typename Payload = row_id_t>
std::size_t CrackInTwo(std::span<T> values, std::span<Payload> row_ids,
                       const Cut<T>& cut,
                       CrackKernel kernel = CrackKernel::kAuto,
                       std::size_t min_piece = 0) {
  AIDX_DCHECK(row_ids.empty() || row_ids.size() == values.size());
  if (kernel == CrackKernel::kAuto) kernel = ResolveCrackKernel(kernel, sizeof(T));
  if (cut.kind == CutKind::kLess) {
    return internal::CrackInTwoWithBelow(
        values, row_ids, internal::BelowPivot<T, CutKind::kLess>{cut.value},
        kernel, min_piece);
  }
  return internal::CrackInTwoWithBelow(
      values, row_ids, internal::BelowPivot<T, CutKind::kLessEq>{cut.value},
      kernel, min_piece);
}

/// Element visits a CrackInThree over n values performs. Every kernel now
/// makes a single pass (branchy via the DNF sweep, the predicated family
/// via the single-pass two-cursor kernel), so this is simply n; it stays a
/// named function so the values_touched accounting has one definition.
inline std::size_t CrackInThreeValuesTouched(std::size_t n) { return n; }

/// Partitions into three regions (kernel-selectable):
///   region A: Below(lo_cut)
///   region B: !Below(lo_cut) && Below(hi_cut)   — the qualifying middle
///   region C: !Below(hi_cut)
///
/// Requires lo_cut <= hi_cut (so A and C cannot overlap). The branchy
/// kernel is the classic one-pass Dutch-national-flag sweep; the predicated
/// family uses the single-pass two-cursor kernel (one sweep, branch-free,
/// ~1 pass of memory traffic — bench_e12's three_way section measures it
/// against the old two-pass decomposition, bench/crack_two_pass.h).
template <ColumnValue T, typename Payload = row_id_t>
ThreeWaySplit CrackInThree(std::span<T> values, std::span<Payload> row_ids,
                           const Cut<T>& lo_cut, const Cut<T>& hi_cut,
                           CrackKernel kernel = CrackKernel::kAuto,
                           std::size_t min_piece = 0) {
  AIDX_DCHECK(!(hi_cut < lo_cut));
  AIDX_DCHECK(row_ids.empty() || row_ids.size() == values.size());
  if (kernel == CrackKernel::kAuto) kernel = ResolveCrackKernel(kernel, sizeof(T));
  if (kernel != CrackKernel::kBranchy) {
    if (min_piece == 0) min_piece = DefaultCrackMinPiece(sizeof(T));
    if (values.size() >= min_piece) {
      return internal::CrackInThreeSinglePass(values, row_ids, lo_cut, hi_cut,
                                              kernel);
    }
  }
  const bool tandem = !row_ids.empty();
  std::size_t a = 0;                // next slot of region A
  std::size_t m = 0;                // cursor
  std::size_t z = values.size();    // first slot of region C
  while (m < z) {
    const T v = values[m];
    if (lo_cut.Below(v)) {
      std::swap(values[a], values[m]);
      if (tandem) std::swap(row_ids[a], row_ids[m]);
      ++a;
      ++m;
    } else if (!hi_cut.Below(v)) {
      --z;
      std::swap(values[m], values[z]);
      if (tandem) std::swap(row_ids[m], row_ids[z]);
    } else {
      ++m;
    }
  }
  return {a, z};
}

}  // namespace aidx
