// Runtime-dispatched SIMD row primitives for the Gram/SMO/ranking core.
//
// Every numeric hot path (squared-distance rows, RBF kernel rows, the SMO
// axpy updates) funnels through the function table returned by SimdOps().
// Two tiers exist: a portable scalar tier and an AVX2 tier, selected once
// at runtime via CPUID (or forced with the MIVID_SIMD environment
// variable / SetSimdTier, which tests use to pin a tier).
//
// The hard invariant: *both tiers produce bit-identical results.* This is
// achieved by construction, not tolerance:
//  * Row primitives vectorize across independent outputs (one output per
//    SIMD lane) while each output's accumulation runs in the same serial
//    order the scalar code uses — so per-output rounding is identical.
//  * No FMA contraction anywhere: both tiers use explicit mul-then-add
//    (the AVX2 translation unit is compiled with -mavx2 only, and the
//    scalar tier with -ffp-contract=off).
//  * exp() goes through DetExp, a deterministic exponential whose scalar
//    and AVX2 forms execute the same floating-point op sequence per
//    element (Cody-Waite reduction + Horner polynomial + exact 2^k
//    scaling). DetExp agrees with std::exp to ~1 ulp but is reproducible
//    across tiers, which libm's exp is not once vectorized.
//
// The SoA operand layout ("X[k * stride + j] = feature k of point j") is
// produced by PackedFeatureMatrix (packed_matrix.h); u operands are plain
// contiguous vectors (a query point, a support vector, a Gram row).

#ifndef MIVID_LINALG_SIMD_H_
#define MIVID_LINALG_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace mivid {

/// Dispatch tiers, ordered by capability.
enum class SimdTier : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable tier name ("scalar", "avx2").
const char* SimdTierName(SimdTier tier);

/// The tier in effect: the MIVID_SIMD override if set and supported, else
/// the best tier the CPU supports. Resolved once, then cached.
SimdTier ActiveSimdTier();

/// Forces a tier (tests / benchmarks). `tier` must be supported by the
/// build and the CPU; unsupported requests fall back to scalar. Passing
/// a negative value re-resolves from the environment/CPUID. Not safe to
/// call concurrently with running kernels.
void SetSimdTier(int tier);

/// True when this build carries the AVX2 tier and the CPU supports it.
bool Avx2Available();

/// The per-tier kernel table. All `x` operands use the SoA layout
/// X[k * stride + j] (j = point index, k = feature index); `u` operands
/// are contiguous `dim` doubles. Output ranges never alias inputs.
struct SimdOpsTable {
  /// out[j] = max(0, u_norm2 + norms[j] - 2 * dot(u, X_j)), j in [0,count).
  /// The expanded |u-v|^2 formula every Gram/cache path shares.
  void (*expanded_d2_row)(const double* u, double u_norm2, size_t dim,
                          const double* x, size_t stride, const double* norms,
                          size_t count, double* out);
  /// out[j] = sum_k (u[k] - X[k,j])^2 — the direct formula, bit-identical
  /// to SquaredDistance(u, x_j).
  void (*direct_d2_row)(const double* u, size_t dim, const double* x,
                        size_t stride, size_t count, double* out);
  /// out[j] = dot(u, X_j).
  void (*dot_row)(const double* u, size_t dim, const double* x, size_t stride,
                  size_t count, double* out);
  /// y[t] += a * x[t].
  void (*axpy)(double a, const double* x, size_t count, double* y);
  /// y[t] += a * (p[t] - q[t]) — the SMO gradient update.
  void (*axpy_diff)(double a, const double* p, const double* q, size_t count,
                    double* y);
  /// out[j] = DetExp(-gamma * d2[j]) — the RBF kernel row.
  void (*rbf_from_d2_row)(double gamma, const double* d2, size_t count,
                          double* out);
  /// The selective-mean background model's fused pass over `count`
  /// pixels (linalg/background_kernel.h): mean[i] becomes
  /// WarmupMean(mean[i], px[i], n) when `warmup`, else
  /// SelectiveEma(mean[i], px[i], rate, threshold); then mask[i] =
  /// IsForeground(px[i], mean[i], threshold) against the new mean.
  /// Returns the sum of Quantize(mean[i]) over the new means.
  uint64_t (*background_pass)(const uint8_t* px, size_t count, bool warmup,
                              double n, double rate, double threshold,
                              double* mean, uint8_t* mask);
};

/// The kernel table of the active tier.
const SimdOpsTable& SimdOps();

/// Deterministic exp: identical bits from the scalar tier and from each
/// lane of the AVX2 rbf_from_d2_row. Accurate to ~1 ulp of std::exp over
/// [-708, 708]; arguments outside are clamped. Use for every kernel
/// evaluation so single-point and batched paths agree exactly.
double DetExp(double x);

namespace simd_internal {

// Tier entry points (defined in simd_scalar.cc / simd_avx2.cc).
extern const SimdOpsTable kScalarOps;
#if defined(MIVID_HAVE_AVX2)
extern const SimdOpsTable kAvx2Ops;
#endif

}  // namespace simd_internal

}  // namespace mivid

#endif  // MIVID_LINALG_SIMD_H_
