// AVX2 tier of the SIMD kernel table (4 doubles per lane group).
//
// Compiled with -mavx2 only — deliberately NOT -mfma: the scalar tier
// uses plain mul-then-add, and fusing here would change roundings and
// break the bit-identity contract. Every loop vectorizes across
// independent outputs (one output per lane) while the per-output
// accumulation order matches the scalar tier exactly; tails run the
// scalar code path. Main loops process two lane groups (8 outputs) per
// iteration so the u[k] broadcasts are shared and the mul->add latency
// chains overlap — interleaving changes scheduling only, never the op
// sequence an individual output sees, so results stay bit-identical.
// Loads are unaligned (loadu) so callers may pass any offset into a
// packed matrix.
//
// Only ever called after runtime CPUID dispatch confirms AVX2 (simd.cc),
// so executing these instructions is safe even on a generic build.

#if defined(MIVID_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "linalg/det_exp_constants.h"
#include "linalg/noise_kernel.h"
#include "linalg/simd.h"

namespace mivid {
namespace {

/// Four-lane DetExp: the same op sequence as the scalar DetExpImpl.
inline __m256d DetExp4(__m256d x) {
  using namespace det_exp;
  const __m256d clamp = _mm256_set1_pd(kClamp);
  x = _mm256_min_pd(x, clamp);
  x = _mm256_max_pd(x, _mm256_set1_pd(-kClamp));
  // k = floor(x * log2e + 0.5)
  const __m256d k = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kLog2e)), _mm256_set1_pd(0.5)));
  // r = (x - k*ln2_hi) - k*ln2_lo
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
  __m256d p = _mm256_set1_pd(kPoly[0]);
  for (int i = 1; i < 14; ++i) {
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kPoly[i]));
  }
  // scale = 2^k exactly, via the exponent field.
  const __m128i k32 = _mm256_cvtpd_epi32(k);  // k is integral, in range
  const __m256i k64 = _mm256_cvtepi32_epi64(k32);
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52);
  const __m256d scale = _mm256_castsi256_pd(bits);
  return _mm256_mul_pd(p, scale);
}

/// 2^k scaling factor of DetExp for an integral-valued k vector.
inline __m256d DetExpScale(__m256d k) {
  const __m256i k64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
  return _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52));
}

void ExpandedD2Row(const double* u, double u_norm2, size_t dim,
                   const double* x, size_t stride, const double* norms,
                   size_t count, double* out) {
  const __m256d vnorm_u = _mm256_set1_pd(u_norm2);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d zero = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    __m256d dot0 = zero;
    __m256d dot1 = zero;
    for (size_t k = 0; k < dim; ++k) {
      const __m256d uk = _mm256_set1_pd(u[k]);
      const double* base = x + k * stride + j;
      dot0 = _mm256_add_pd(dot0, _mm256_mul_pd(uk, _mm256_loadu_pd(base)));
      dot1 = _mm256_add_pd(dot1, _mm256_mul_pd(uk, _mm256_loadu_pd(base + 4)));
    }
    const __m256d d20 = _mm256_sub_pd(
        _mm256_add_pd(vnorm_u, _mm256_loadu_pd(norms + j)),
        _mm256_mul_pd(two, dot0));
    const __m256d d21 = _mm256_sub_pd(
        _mm256_add_pd(vnorm_u, _mm256_loadu_pd(norms + j + 4)),
        _mm256_mul_pd(two, dot1));
    // max(d2, +0.0): returns +0.0 for d2 <= 0, matching `d2 > 0 ? d2 : 0`.
    _mm256_storeu_pd(out + j, _mm256_max_pd(d20, zero));
    _mm256_storeu_pd(out + j + 4, _mm256_max_pd(d21, zero));
  }
  for (; j + 4 <= count; j += 4) {
    __m256d dot = zero;
    for (size_t k = 0; k < dim; ++k) {
      const __m256d xv = _mm256_loadu_pd(x + k * stride + j);
      dot = _mm256_add_pd(dot, _mm256_mul_pd(_mm256_set1_pd(u[k]), xv));
    }
    const __m256d d2 = _mm256_sub_pd(
        _mm256_add_pd(vnorm_u, _mm256_loadu_pd(norms + j)),
        _mm256_mul_pd(two, dot));
    _mm256_storeu_pd(out + j, _mm256_max_pd(d2, zero));
  }
  for (; j < count; ++j) {
    double dot = 0.0;
    for (size_t k = 0; k < dim; ++k) dot += u[k] * x[k * stride + j];
    const double d2 = u_norm2 + norms[j] - 2.0 * dot;
    out[j] = d2 > 0.0 ? d2 : 0.0;
  }
}

void DirectD2Row(const double* u, size_t dim, const double* x, size_t stride,
                 size_t count, double* out) {
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t k = 0; k < dim; ++k) {
      const __m256d uk = _mm256_set1_pd(u[k]);
      const double* base = x + k * stride + j;
      const __m256d da = _mm256_sub_pd(uk, _mm256_loadu_pd(base));
      const __m256d db = _mm256_sub_pd(uk, _mm256_loadu_pd(base + 4));
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(da, da));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(db, db));
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
  }
  for (; j + 4 <= count; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t k = 0; k < dim; ++k) {
      const __m256d d = _mm256_sub_pd(_mm256_set1_pd(u[k]),
                                      _mm256_loadu_pd(x + k * stride + j));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < count; ++j) {
    double acc = 0.0;
    for (size_t k = 0; k < dim; ++k) {
      const double d = u[k] - x[k * stride + j];
      acc += d * d;
    }
    out[j] = acc;
  }
}

void DotRow(const double* u, size_t dim, const double* x, size_t stride,
            size_t count, double* out) {
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t k = 0; k < dim; ++k) {
      const __m256d uk = _mm256_set1_pd(u[k]);
      const double* base = x + k * stride + j;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(uk, _mm256_loadu_pd(base)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(uk, _mm256_loadu_pd(base + 4)));
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
  }
  for (; j + 4 <= count; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t k = 0; k < dim; ++k) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(u[k]),
                                             _mm256_loadu_pd(x + k * stride + j)));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < count; ++j) {
    double acc = 0.0;
    for (size_t k = 0; k < dim; ++k) acc += u[k] * x[k * stride + j];
    out[j] = acc;
  }
}

void Axpy(double a, const double* x, size_t count, double* y) {
  const __m256d va = _mm256_set1_pd(a);
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256d yv = _mm256_loadu_pd(y + t);
    _mm256_storeu_pd(
        y + t, _mm256_add_pd(yv, _mm256_mul_pd(va, _mm256_loadu_pd(x + t))));
  }
  for (; t < count; ++t) y[t] += a * x[t];
}

void AxpyDiff(double a, const double* p, const double* q, size_t count,
              double* y) {
  const __m256d va = _mm256_set1_pd(a);
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(p + t), _mm256_loadu_pd(q + t));
    const __m256d yv = _mm256_loadu_pd(y + t);
    _mm256_storeu_pd(y + t, _mm256_add_pd(yv, _mm256_mul_pd(va, diff)));
  }
  for (; t < count; ++t) y[t] += a * (p[t] - q[t]);
}

void RbfFromD2Row(double gamma, const double* d2, size_t count, double* out) {
  const double ng = -gamma;
  const __m256d vng = _mm256_set1_pd(ng);
  size_t j = 0;
  // Four interleaved 4-lane DetExp evaluations: the Horner recurrence is
  // a serial mul->add dependency chain, so a single chain leaves the FP
  // units mostly idle; four independent chains keep them saturated.
  for (; j + 16 <= count; j += 16) {
    using namespace det_exp;
    const __m256d clamp_hi = _mm256_set1_pd(kClamp);
    const __m256d clamp_lo = _mm256_set1_pd(-kClamp);
    __m256d x0 = _mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j));
    __m256d x1 = _mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j + 4));
    __m256d x2 = _mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j + 8));
    __m256d x3 = _mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j + 12));
    x0 = _mm256_max_pd(_mm256_min_pd(x0, clamp_hi), clamp_lo);
    x1 = _mm256_max_pd(_mm256_min_pd(x1, clamp_hi), clamp_lo);
    x2 = _mm256_max_pd(_mm256_min_pd(x2, clamp_hi), clamp_lo);
    x3 = _mm256_max_pd(_mm256_min_pd(x3, clamp_hi), clamp_lo);
    const __m256d log2e = _mm256_set1_pd(kLog2e);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d k0 =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x0, log2e), half));
    const __m256d k1 =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x1, log2e), half));
    const __m256d k2 =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x2, log2e), half));
    const __m256d k3 =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x3, log2e), half));
    const __m256d hi = _mm256_set1_pd(kLn2Hi);
    const __m256d lo = _mm256_set1_pd(kLn2Lo);
    const __m256d r0 = _mm256_sub_pd(
        _mm256_sub_pd(x0, _mm256_mul_pd(k0, hi)), _mm256_mul_pd(k0, lo));
    const __m256d r1 = _mm256_sub_pd(
        _mm256_sub_pd(x1, _mm256_mul_pd(k1, hi)), _mm256_mul_pd(k1, lo));
    const __m256d r2 = _mm256_sub_pd(
        _mm256_sub_pd(x2, _mm256_mul_pd(k2, hi)), _mm256_mul_pd(k2, lo));
    const __m256d r3 = _mm256_sub_pd(
        _mm256_sub_pd(x3, _mm256_mul_pd(k3, hi)), _mm256_mul_pd(k3, lo));
    // 2^k while k is still live; frees the k registers for the chains.
    const __m256d s0 = DetExpScale(k0);
    const __m256d s1 = DetExpScale(k1);
    const __m256d s2 = DetExpScale(k2);
    const __m256d s3 = DetExpScale(k3);
    __m256d p0 = _mm256_set1_pd(kPoly[0]);
    __m256d p1 = p0;
    __m256d p2 = p0;
    __m256d p3 = p0;
    for (int i = 1; i < 14; ++i) {
      const __m256d c = _mm256_set1_pd(kPoly[i]);
      p0 = _mm256_add_pd(_mm256_mul_pd(p0, r0), c);
      p1 = _mm256_add_pd(_mm256_mul_pd(p1, r1), c);
      p2 = _mm256_add_pd(_mm256_mul_pd(p2, r2), c);
      p3 = _mm256_add_pd(_mm256_mul_pd(p3, r3), c);
    }
    _mm256_storeu_pd(out + j, _mm256_mul_pd(p0, s0));
    _mm256_storeu_pd(out + j + 4, _mm256_mul_pd(p1, s1));
    _mm256_storeu_pd(out + j + 8, _mm256_mul_pd(p2, s2));
    _mm256_storeu_pd(out + j + 12, _mm256_mul_pd(p3, s3));
  }
  for (; j + 4 <= count; j += 4) {
    _mm256_storeu_pd(out + j,
                     DetExp4(_mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j))));
  }
  for (; j < count; ++j) out[j] = DetExp(ng * d2[j]);
}

/// Polynomial Box-Muller of four (u1, u2) pairs; see noise_kernel.h for
/// the method and its error budget.
inline void BoxMuller4(__m256d u1, __m256d u2, __m256d* first,
                       __m256d* second) {
  using namespace noise_kernel;
  const __m256d one = _mm256_set1_pd(1.0);
  // log(u1) as in fdlibm's e_log.c: u1 = 2^k * x, x in [sqrt(2)/2,
  // sqrt(2)). u1 >= 2^-53 is normal and positive.
  const __m256i bits = _mm256_castpd_si256(u1);
  const __m256i mant =
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL));
  const __m256i hx = _mm256_srli_epi64(mant, 32);
  const __m256i i = _mm256_and_si256(
      _mm256_add_epi64(hx, _mm256_set1_epi64x(0x95f64)),
      _mm256_set1_epi64x(0x100000));
  const __m256d x = _mm256_castsi256_pd(_mm256_or_si256(
      mant, _mm256_slli_epi64(
                _mm256_xor_si256(i, _mm256_set1_epi64x(0x3ff00000)), 32)));
  const __m256i k = _mm256_add_epi64(
      _mm256_sub_epi64(_mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(1023)),
      _mm256_srli_epi64(i, 20));
  // int64 -> double for small k: add k to the bits of 1.5 * 2^52.
  const __m256d magic = _mm256_set1_pd(0x1.8p52);
  const __m256d dk = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(k, _mm256_castpd_si256(magic))),
      magic);
  const __m256d f = _mm256_sub_pd(x, one);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  // R = t2 + t1, t1 = w (Lg2 + w (Lg4 + w Lg6)),
  // t2 = z (Lg1 + w (Lg3 + w (Lg5 + w Lg7))).
  __m256d t1 = _mm256_set1_pd(kLg6);
  t1 = _mm256_add_pd(_mm256_set1_pd(kLg4), _mm256_mul_pd(w, t1));
  t1 = _mm256_add_pd(_mm256_set1_pd(kLg2), _mm256_mul_pd(w, t1));
  t1 = _mm256_mul_pd(w, t1);
  __m256d t2 = _mm256_set1_pd(kLg7);
  t2 = _mm256_add_pd(_mm256_set1_pd(kLg5), _mm256_mul_pd(w, t2));
  t2 = _mm256_add_pd(_mm256_set1_pd(kLg3), _mm256_mul_pd(w, t2));
  t2 = _mm256_add_pd(_mm256_set1_pd(kLg1), _mm256_mul_pd(w, t2));
  t2 = _mm256_mul_pd(z, t2);
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  const __m256d log_u1 = _mm256_sub_pd(
      _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Hi)),
      _mm256_sub_pd(
          _mm256_sub_pd(hfsq, _mm256_add_pd(
                                  _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                                  _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Lo)))),
          f));
  const __m256d mag =
      _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log_u1));

  // cos/sin(2 pi u2): n = round(4 u2) quarter turns (exact), then the
  // fdlibm kernels on phi = (4 u2 - n) * pi/2 in [-pi/4, pi/4].
  const __m256d t = _mm256_mul_pd(u2, _mm256_set1_pd(4.0));
  const __m256d n =
      _mm256_round_pd(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d phi =
      _mm256_mul_pd(_mm256_sub_pd(t, n), _mm256_set1_pd(kPiOver2));
  const __m256d zz = _mm256_mul_pd(phi, phi);
  __m256d ps = _mm256_set1_pd(kS6);
  ps = _mm256_add_pd(_mm256_set1_pd(kS5), _mm256_mul_pd(zz, ps));
  ps = _mm256_add_pd(_mm256_set1_pd(kS4), _mm256_mul_pd(zz, ps));
  ps = _mm256_add_pd(_mm256_set1_pd(kS3), _mm256_mul_pd(zz, ps));
  ps = _mm256_add_pd(_mm256_set1_pd(kS2), _mm256_mul_pd(zz, ps));
  ps = _mm256_add_pd(_mm256_set1_pd(kS1), _mm256_mul_pd(zz, ps));
  const __m256d sin_phi =
      _mm256_add_pd(phi, _mm256_mul_pd(_mm256_mul_pd(zz, phi), ps));
  __m256d pc = _mm256_set1_pd(kC6);
  pc = _mm256_add_pd(_mm256_set1_pd(kC5), _mm256_mul_pd(zz, pc));
  pc = _mm256_add_pd(_mm256_set1_pd(kC4), _mm256_mul_pd(zz, pc));
  pc = _mm256_add_pd(_mm256_set1_pd(kC3), _mm256_mul_pd(zz, pc));
  pc = _mm256_add_pd(_mm256_set1_pd(kC2), _mm256_mul_pd(zz, pc));
  pc = _mm256_add_pd(_mm256_set1_pd(kC1), _mm256_mul_pd(zz, pc));
  const __m256d cos_phi = _mm256_sub_pd(
      one, _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), zz),
                         _mm256_mul_pd(zz, _mm256_mul_pd(zz, pc))));
  // Quarter turn n in 0..4: odd n swaps cos and sin; cos is negated for
  // n = 1, 2 (bit 1 of n + 1), sin for n = 2, 3 (bit 1 of n).
  const __m256i ni = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
  const __m256d swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(ni, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(1)));
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(ni, _mm256_set1_epi64x(1)), two), 62));
  const __m256d sin_sign =
      _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(ni, two), 62));
  const __m256d c = _mm256_xor_pd(_mm256_blendv_pd(cos_phi, sin_phi, swap),
                                  cos_sign);
  const __m256d sn = _mm256_xor_pd(_mm256_blendv_pd(sin_phi, cos_phi, swap),
                                   sin_sign);
  *first = _mm256_mul_pd(mag, c);
  *second = _mm256_mul_pd(mag, sn);
}

/// uint8(clamp(base + sigma * g)) for four lanes, as int32.
inline __m128i NoisyBytes4(__m256d base, __m256d sigma, __m256d g) {
  const __m256d v = _mm256_add_pd(base, _mm256_mul_pd(sigma, g));
  return _mm256_cvttpd_epi32(_mm256_min_pd(
      _mm256_max_pd(v, _mm256_setzero_pd()), _mm256_set1_pd(255.0)));
}

/// noisy_pairs_u8 on four pairs = eight pixels. Lanes past `valid` are
/// padding: their bytes are written but never recomputed or counted.
size_t NoisyOctet(const double* u1, const double* u2, int valid,
                  double offset, double sigma, double margin, uint8_t* px) {
  uint64_t raw = 0;
  std::memcpy(&raw, px, sizeof(raw));
  // Even pixels take the pairs' first normal, odd pixels the second.
  const __m256i split = _mm256_permutevar8x32_epi32(
      _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(static_cast<int64_t>(raw))),
      _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  const __m256d voff = _mm256_set1_pd(offset);
  const __m256d base_first =
      _mm256_add_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(split)), voff);
  const __m256d base_second = _mm256_add_pd(
      _mm256_cvtepi32_pd(_mm256_extracti128_si256(split, 1)), voff);
  __m256d g1, g2;
  BoxMuller4(_mm256_loadu_pd(u1), _mm256_loadu_pd(u2), &g1, &g2);
  const __m256d vs = _mm256_set1_pd(sigma);
  const __m256d vm = _mm256_set1_pd(margin);
  const __m128i lo1 = NoisyBytes4(base_first, vs, _mm256_sub_pd(g1, vm));
  const __m128i hi1 = NoisyBytes4(base_first, vs, _mm256_add_pd(g1, vm));
  const __m128i lo2 = NoisyBytes4(base_second, vs, _mm256_sub_pd(g2, vm));
  const __m128i hi2 = NoisyBytes4(base_second, vs, _mm256_add_pd(g2, vm));
  const __m128i decided =
      _mm_and_si128(_mm_cmpeq_epi32(lo1, hi1), _mm_cmpeq_epi32(lo2, hi2));
  const __m128i words = _mm_packus_epi32(_mm_unpacklo_epi32(lo1, lo2),
                                         _mm_unpackhi_epi32(lo1, lo2));
  const uint64_t out =
      static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_packus_epi16(words, words)));
  std::memcpy(px, &out, sizeof(out));
  int undecided =
      ~_mm_movemask_ps(_mm_castsi128_ps(decided)) & ((1 << valid) - 1);
  size_t recomputed = 0;
  for (; undecided != 0; undecided &= undecided - 1, ++recomputed) {
    const int b = __builtin_ctz(static_cast<unsigned>(undecided));
    std::memcpy(px + 2 * b, reinterpret_cast<const uint8_t*>(&raw) + 2 * b, 2);
    simd_internal::kScalarOps.noisy_pairs_u8(u1 + b, u2 + b, 1, offset, sigma,
                                             px + 2 * b);
  }
  return recomputed;
}

size_t NoisyPairsU8(const double* u1, const double* u2, size_t pairs,
                    double offset, double sigma, uint8_t* px) {
  return simd_internal::NoisyPairsU8Avx2(u1, u2, pairs, offset, sigma,
                                         noise_kernel::kMargin, px);
}

/// kMaskBytes[b] holds byte k = bit k of b: four mask bytes from a
/// 4-lane compare's movemask (little-endian store).
constexpr uint32_t kMaskBytes[16] = {
    0x00000000, 0x00000001, 0x00000100, 0x00000101,
    0x00010000, 0x00010001, 0x00010100, 0x00010101,
    0x01000000, 0x01000001, 0x01000100, 0x01000101,
    0x01010000, 0x01010001, 0x01010100, 0x01010101,
};

/// background_pass, four pixels per step, op for op the scalar
/// background_kernel helpers; the tail runs the scalar tier.
template <bool kWarmup>
uint64_t BackgroundPassImpl(const uint8_t* px, size_t count, double n,
                            double rate, double threshold, double* mean,
                            uint8_t* mask) {
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d vthr = _mm256_set1_pd(threshold);
  const __m256d vn = _mm256_set1_pd(n);
  const __m256d vn1 = _mm256_set1_pd(n + 1.0);
  const __m256d vkeep = _mm256_set1_pd(1.0 - rate);
  const __m256d vrate = _mm256_set1_pd(rate);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d top = _mm256_set1_pd(255.0);
  __m256i sum4 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    int32_t raw = 0;
    std::memcpy(&raw, px + i, sizeof(raw));
    const __m256d p =
        _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(raw)));
    const __m256d old_mean = _mm256_loadu_pd(mean + i);
    __m256d m;
    if (kWarmup) {
      m = _mm256_div_pd(_mm256_add_pd(_mm256_mul_pd(old_mean, vn), p), vn1);
    } else {
      const __m256d adapted = _mm256_add_pd(_mm256_mul_pd(vkeep, old_mean),
                                            _mm256_mul_pd(vrate, p));
      const __m256d near = _mm256_cmp_pd(
          _mm256_and_pd(_mm256_sub_pd(p, old_mean), abs_mask), vthr,
          _CMP_LT_OQ);
      m = _mm256_blendv_pd(old_mean, adapted, near);
    }
    _mm256_storeu_pd(mean + i, m);
    const int fg = _mm256_movemask_pd(_mm256_cmp_pd(
        _mm256_and_pd(_mm256_sub_pd(p, m), abs_mask), vthr, _CMP_GE_OQ));
    std::memcpy(mask + i, &kMaskBytes[fg], 4);
    const __m128i q = _mm256_cvttpd_epi32(
        _mm256_min_pd(_mm256_max_pd(m, zero), top));
    sum4 = _mm256_add_epi64(sum4, _mm256_cvtepi32_epi64(q));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sum4);
  uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  if (i < count) {
    sum += simd_internal::kScalarOps.background_pass(
        px + i, count - i, kWarmup, n, rate, threshold, mean + i, mask + i);
  }
  return sum;
}

uint64_t BackgroundPass(const uint8_t* px, size_t count, bool warmup,
                        double n, double rate, double threshold, double* mean,
                        uint8_t* mask) {
  return warmup ? BackgroundPassImpl<true>(px, count, n, rate, threshold,
                                           mean, mask)
                : BackgroundPassImpl<false>(px, count, n, rate, threshold,
                                            mean, mask);
}

}  // namespace

namespace simd_internal {

const SimdOpsTable kAvx2Ops = {
    ExpandedD2Row, DirectD2Row, DotRow, Axpy, AxpyDiff, RbfFromD2Row,
    NoisyPairsU8, BackgroundPass,
};

void BoxMullerAvx2(const double* u1, const double* u2, size_t count,
                   double* first, double* second) {
  for (size_t j = 0; j < count; j += 4) {
    // The tail group runs on padded copies: u1 = 1/2, u2 = 0.
    double a[4] = {0.5, 0.5, 0.5, 0.5}, b[4] = {0.0, 0.0, 0.0, 0.0};
    const size_t n = count - j < 4 ? count - j : 4;
    std::memcpy(a, u1 + j, n * sizeof(double));
    std::memcpy(b, u2 + j, n * sizeof(double));
    __m256d g1, g2;
    BoxMuller4(_mm256_loadu_pd(a), _mm256_loadu_pd(b), &g1, &g2);
    double out1[4], out2[4];
    _mm256_storeu_pd(out1, g1);
    _mm256_storeu_pd(out2, g2);
    std::memcpy(first + j, out1, n * sizeof(double));
    std::memcpy(second + j, out2, n * sizeof(double));
  }
}

size_t NoisyPairsU8Avx2(const double* u1, const double* u2, size_t pairs,
                        double offset, double sigma, double margin,
                        uint8_t* px) {
  size_t recomputed = 0;
  size_t j = 0;
  for (; j + 4 <= pairs; j += 4) {
    recomputed += NoisyOctet(u1 + j, u2 + j, 4, offset, sigma, margin,
                             px + 2 * j);
  }
  if (j < pairs) {
    const size_t n = pairs - j;
    double a[4] = {0.5, 0.5, 0.5, 0.5}, b[4] = {0.0, 0.0, 0.0, 0.0};
    uint8_t tail[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::memcpy(a, u1 + j, n * sizeof(double));
    std::memcpy(b, u2 + j, n * sizeof(double));
    std::memcpy(tail, px + 2 * j, 2 * n);
    recomputed += NoisyOctet(a, b, static_cast<int>(n), offset, sigma,
                             margin, tail);
    std::memcpy(px + 2 * j, tail, 2 * n);
  }
  return recomputed;
}

}  // namespace simd_internal
}  // namespace mivid

#endif  // MIVID_HAVE_AVX2
