// Per-pixel arithmetic of the selective-mean background model
// (segment/background.cc, paper Sec. 3.1), shared by the model's own
// Update / Subtract / BackgroundFrame and by the scalar tier of the fused
// SimdOpsTable::background_pass. The AVX2 tier executes the same op
// sequence per pixel (mul-then-add, no FMA, IEEE division and compares),
// so both tiers and the separate calls agree bit for bit.

#ifndef MIVID_LINALG_BACKGROUND_KERNEL_H_
#define MIVID_LINALG_BACKGROUND_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace mivid {
namespace background_kernel {

/// Running mean of the first n + 1 frames (warm-up).
inline double WarmupMean(double mean, uint8_t p, double n) {
  return (mean * n + p) / (n + 1.0);
}

/// Selective EMA: adapt only where the pixel still looks like background,
/// so stationary vehicles are not absorbed quickly.
inline double SelectiveEma(double mean, uint8_t p, double rate,
                           double threshold) {
  return std::fabs(p - mean) < threshold ? (1.0 - rate) * mean + rate * p
                                         : mean;
}

/// 1 where the pixel differs from the background by at least `threshold`.
inline uint8_t IsForeground(uint8_t p, double mean, double threshold) {
  return std::fabs(p - mean) >= threshold ? 1 : 0;
}

/// The background estimate as a byte: uint8(clamp(mean, 0, 255)).
inline uint8_t Quantize(double mean) {
  return static_cast<uint8_t>(std::clamp(mean, 0.0, 255.0));
}

}  // namespace background_kernel
}  // namespace mivid

#endif  // MIVID_LINALG_BACKGROUND_KERNEL_H_
