// Shared pieces of the sensor-noise kernel (SimdOpsTable::
// gaussian_noise_u8): the per-pixel formula, the polynomial constants of
// the AVX2 Box-Muller, and the margin that keeps the fast path exact.
//
// The renderer's byte is B(g) = uint8(clamp(p + offset + sigma * g)) with
// g = BoxMuller(u1, u2) from common/rng (libm log, sqrt, cos, sin). The
// AVX2 tier evaluates g with polynomials instead:
//  * log(u1): fdlibm's e_log.c kernel. u1 = 2^k * m with m in
//    [sqrt(2)/2, sqrt(2)), f = m - 1, s = f / (2 + f), and
//    log(u1) = k*ln2_hi - ((f*f/2 - (s*(f*f/2 + R(s^2)) + k*ln2_lo)) - f).
//  * cos/sin(2 pi u2): the octant of u2 picks the nearest quarter turn
//    n = round(4 u2); d = 4 u2 - n is exact and phi = d * pi/2 lies in
//    [-pi/4, pi/4], where fdlibm's k_sin.c / k_cos.c polynomials apply;
//    the quarter turn is an exact swap and sign flip.
//
// Error budget, |g_avx2 - g_exact| where g_exact is what BoxMuller
// returns (itself a few ulps from the true value), with |g| <= mag <=
// sqrt(-2 log 2^-53) = 8.6:
//  * angle: BoxMuller rounds 2 pi u2 once (<= 2pi * 2^-53 = 7e-16) and
//    uses a rounded 2 pi (2.4e-16 * u2); phi here carries ~1e-16.
//    Times mag: <= 8.6 * 1.1e-15 = 9.5e-15.
//  * cos/sin polynomials and libm: <= 2 ulp of 1 each side, times mag:
//    <= 8.6 * 4.4e-16 = 3.8e-15.
//  * log + sqrt + the final multiply: <= 2 ulp of mag per side = 7e-15.
// Total <= 2.1e-14. kMargin = 1e-11 is ~500x that bound; the test
// (SimdKernelsTest.BoxMullerErrorFarBelowMargin) measures the largest
// error over 10^6 random and all edge draws and requires it to be
// >= 100x below kMargin.
//
// Why the checked result is exact: B is monotone in g (every step of
// p + offset + sigma * g rounds monotonically, then clamp and the
// truncating cast are monotone). If g_exact lies in [g - kMargin,
// g + kMargin] and B takes the same byte at both ends, that byte is
// B(g_exact). Otherwise the pair is recomputed with BoxMuller itself.
// For sigma = 6 about 2 * sigma * kMargin = 1.2e-10 of all pixels land
// that close to a byte boundary.

#ifndef MIVID_LINALG_NOISE_KERNEL_H_
#define MIVID_LINALG_NOISE_KERNEL_H_

#include <algorithm>
#include <cstdint>

namespace mivid {
namespace noise_kernel {

/// One rendered byte: exactly the renderer's `v = p + offset;
/// v += Gaussian(0, sigma)` with g the standard normal drawn.
inline uint8_t NoisyPixel(uint8_t p, double offset, double sigma, double g) {
  double v = static_cast<double>(p) + offset;
  v += 0.0 + sigma * g;
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
}

/// Half-width of the interval around the polynomial g that must hold the
/// exact g (see the error budget above).
constexpr double kMargin = 1e-11;

// e_log.c: ln 2 split so k * kLn2Hi is exact for |k| < 2^11.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

// k_sin.c: sin(x) = x + x^3 * (S1 + x^2 * (S2 + ... + x^2 * S6)).
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;

// k_cos.c: cos(x) = 1 - (x^2/2 - x^4 * (C1 + x^2 * (C2 + ... + x^2 * C6))).
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

constexpr double kPiOver2 = 1.57079632679489655800e+00;

}  // namespace noise_kernel
}  // namespace mivid

#endif  // MIVID_LINALG_NOISE_KERNEL_H_
