// Portable scalar tier of the SIMD kernel table.
//
// This translation unit is the bit-exactness reference: the AVX2 tier
// must reproduce these results lane for lane. It is compiled with
// -ffp-contract=off (see src/CMakeLists.txt) so the compiler cannot fuse
// the mul-then-add sequences into FMAs on targets where that is the
// default — contraction would silently change roundings and break the
// scalar-vs-AVX2 bit-identity contract.

#include <cstdint>
#include <cstring>

#include "linalg/background_kernel.h"
#include "linalg/det_exp_constants.h"
#include "linalg/simd.h"

namespace mivid {

namespace {

inline double DetExpImpl(double x) {
  using namespace det_exp;
  if (x > kClamp) x = kClamp;
  if (x < -kClamp) x = -kClamp;
  const double k = __builtin_floor(x * kLog2e + 0.5);
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  double p = kPoly[0];
  for (int i = 1; i < 14; ++i) p = p * r + kPoly[i];
  // Exact 2^k via the exponent field; k is integral in [-1023, 1023].
  const int64_t ki = static_cast<int64_t>(k);
  const uint64_t bits = static_cast<uint64_t>(ki + 1023) << 52;
  double scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return p * scale;
}

void ExpandedD2Row(const double* u, double u_norm2, size_t dim,
                   const double* x, size_t stride, const double* norms,
                   size_t count, double* out) {
  for (size_t j = 0; j < count; ++j) {
    double dot = 0.0;
    for (size_t k = 0; k < dim; ++k) dot += u[k] * x[k * stride + j];
    const double d2 = u_norm2 + norms[j] - 2.0 * dot;
    out[j] = d2 > 0.0 ? d2 : 0.0;
  }
}

void DirectD2Row(const double* u, size_t dim, const double* x, size_t stride,
                 size_t count, double* out) {
  for (size_t j = 0; j < count; ++j) {
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
  for (size_t j = 0; j < count; ++j) {
    double acc = 0.0;
    for (size_t k = 0; k < dim; ++k) acc += u[k] * x[k * stride + j];
    out[j] = acc;
  }
}

void Axpy(double a, const double* x, size_t count, double* y) {
  for (size_t t = 0; t < count; ++t) y[t] += a * x[t];
}

void AxpyDiff(double a, const double* p, const double* q, size_t count,
              double* y) {
  for (size_t t = 0; t < count; ++t) y[t] += a * (p[t] - q[t]);
}

void RbfFromD2Row(double gamma, const double* d2, size_t count, double* out) {
  const double ng = -gamma;
  for (size_t j = 0; j < count; ++j) out[j] = DetExpImpl(ng * d2[j]);
}

uint64_t BackgroundPass(const uint8_t* px, size_t count, bool warmup,
                        double n, double rate, double threshold, double* mean,
                        uint8_t* mask) {
  using namespace background_kernel;
  uint64_t sum = 0;
  for (size_t i = 0; i < count; ++i) {
    mean[i] = warmup ? WarmupMean(mean[i], px[i], n)
                     : SelectiveEma(mean[i], px[i], rate, threshold);
    mask[i] = IsForeground(px[i], mean[i], threshold);
    sum += Quantize(mean[i]);
  }
  return sum;
}

}  // namespace

double DetExp(double x) { return DetExpImpl(x); }

namespace simd_internal {

const SimdOpsTable kScalarOps = {
    ExpandedD2Row, DirectD2Row, DotRow, Axpy, AxpyDiff, RbfFromD2Row,
    BackgroundPass,
};

}  // namespace simd_internal
}  // namespace mivid
