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
    BackgroundPass,
};

}  // namespace simd_internal
}  // namespace mivid

#endif  // MIVID_HAVE_AVX2
