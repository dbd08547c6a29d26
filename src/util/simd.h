// Instruction-set selection shared by the explicit-intrinsic kernels (the
// crack kernels in core/crack_ops.h, the aggregate kernel in index/scan.h).
//
// The build does not pass -mavx2 (the library must run on baseline x86-64),
// so AVX2 kernels are compiled per function with AIDX_TARGET_AVX2 and
// guarded at run time by internal::SimdKernelAvailable(), a cached cpuid
// check. There is no knob: the host decides.
#pragma once

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define AIDX_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__GNUC__) && defined(__aarch64__)
#define AIDX_SIMD_NEON 1
#include <arm_neon.h>
#endif

#if defined(AIDX_SIMD_AVX2) && !defined(__AVX2__)
#define AIDX_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define AIDX_TARGET_AVX2
#endif

namespace aidx::internal {

/// True when the explicit-intrinsic kernels can run on this host: an AVX2
/// path compiled in and cpuid reporting AVX2, or any aarch64 (NEON is
/// baseline there). Cached after the first call.
inline bool SimdKernelAvailable() {
#if defined(AIDX_SIMD_AVX2)
  static const bool ok = __builtin_cpu_supports("avx2") > 0;
  return ok;
#elif defined(AIDX_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

/// The ISA the kSimd crack kernel would use on this host (for reports/JSON).
inline const char* SimdIsaName() {
#if defined(AIDX_SIMD_AVX2)
  return SimdKernelAvailable() ? "avx2" : "scalar";
#elif defined(AIDX_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace aidx::internal
