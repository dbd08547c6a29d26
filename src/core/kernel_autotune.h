// Compatibility header for engine_bench, the only file that includes it:
// the crack kernel is no longer calibrated at startup (kAuto resolves by the
// fixed rule in core/crack_ops.h), and this reports that rule in the shape
// engine_bench prints. The next change to engine_bench deletes it.
#pragma once

#include <cstddef>

#include "core/crack_ops.h"

namespace aidx {

/// The kernel rule in force, per element width (w4: 4-byte, w8: 8-byte).
/// Nothing is measured: `calibrated` is false and the rates are zero.
struct KernelCalibration {
  bool calibrated = false;
  const char* isa = internal::SimdIsaName();
  CrackKernel kernel_w4 = ResolveCrackKernel(CrackKernel::kAuto);
  CrackKernel kernel_w8 = ResolveCrackKernel(CrackKernel::kAuto);
  std::size_t min_piece_w8 = kCrackMinPiece;
  double mrows_w8[kNumCrackKernels] = {};
};

inline const KernelCalibration& Calibrate() {
  static const KernelCalibration rule;
  return rule;
}

inline bool CalibrationEnabled() { return false; }
inline void SetCalibrationEnabled(bool) {}

}  // namespace aidx
