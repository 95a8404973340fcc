#include "svm/kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/packed_matrix.h"
#include "linalg/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

namespace {

/// x^d by repeated multiplication: for the small integer degrees used by
/// polynomial kernels this is both faster and more predictable than
/// std::pow. Falls back to std::pow for large or negative degrees.
double IntPow(double x, int d) {
  if (d < 0 || d > 16) return std::pow(x, d);
  double acc = 1.0;
  double base = x;
  for (int e = d; e > 0; e >>= 1) {
    if (e & 1) acc *= base;
    base *= base;
  }
  return acc;
}

/// Copies the computed upper triangle into the lower one. The naive
/// per-element mirror reads a full matrix column per row — a cache miss
/// per element at large n — so copy in 32x32 tiles instead: each tile's
/// source block is 8 KB of contiguous rows that stays resident while the
/// transposed writes stream out.
void MirrorLowerTriangle(size_t n, double* data) {
  constexpr size_t kTile = 32;
  for (size_t i0 = 0; i0 < n; i0 += kTile) {
    const size_t i1 = std::min(n, i0 + kTile);
    for (size_t j0 = 0; j0 < i1; j0 += kTile) {
      const size_t j1 = std::min(n, j0 + kTile);
      for (size_t i = i0; i < i1; ++i) {
        const size_t jend = std::min(j1, i);
        for (size_t j = j0; j < jend; ++j) {
          data[i * n + j] = data[j * n + i];
        }
      }
    }
  }
}

/// The one expanded-distance row loop behind every RBF Gram and every
/// training-set distance matrix: calls `emit(i, d2)` with the n - i
/// squared distances from point i to points [i, n), so d2[0] is the
/// diagonal. One row buffer is reused; no n x n scratch is allocated.
template <typename Emit>
void ForEachUpperSquaredDistanceRow(const std::vector<Vec>& points,
                                    Emit&& emit) {
  const size_t n = points.size();
  if (n == 0) return;
  const PackedFeatureMatrix packed = PackedFeatureMatrix::FromVecs(points);
  const double* norms = packed.squared_norms();
  const SimdOpsTable& ops = SimdOps();
  std::vector<double> buf(n);
  for (size_t i = 0; i < n; ++i) {
    ops.expanded_d2_row(points[i].data(), norms[i], packed.dim(),
                        packed.data() + i, packed.stride(), norms + i, n - i,
                        buf.data());
    emit(i, buf.data());
  }
}

void RecordGramBuild(size_t n) {
  MIVID_METRIC_COUNT("gram/builds", 1);
  MIVID_METRIC_COUNT("gram/entries", n * n);
  MIVID_METRIC_GAUGE_SET("simd/dispatch_tier",
                         static_cast<double>(ActiveSimdTier()));
  // Triangle cells actually streamed through the row kernels.
  MIVID_METRIC_COUNT("simd/kernel_row_cells", n * (n + 1) / 2);
}

}  // namespace

PreparedKernel::PreparedKernel(const KernelParams& params) : params_(params) {
  if (params_.type == KernelType::kRbf) {
    gamma_ = 1.0 / (2.0 * params_.sigma * params_.sigma);
  }
}

double PreparedKernel::Eval(const Vec& u, const Vec& v) const {
  switch (params_.type) {
    case KernelType::kRbf:
      return DetExp(-gamma_ * SquaredDistance(u, v));
    case KernelType::kLinear:
      return Dot(u, v);
    case KernelType::kPoly:
      return IntPow(Dot(u, v) + params_.poly_c, params_.poly_degree);
  }
  return 0.0;
}

double PreparedKernel::EvalRbfFromSquaredDistance(double d2) const {
  return DetExp(-gamma_ * d2);
}

double PreparedKernel::EvalFromDot(double dot) const {
  switch (params_.type) {
    case KernelType::kRbf:
      break;  // an RBF value is not a function of the dot product alone
    case KernelType::kLinear:
      return dot;
    case KernelType::kPoly:
      return IntPow(dot + params_.poly_c, params_.poly_degree);
  }
  assert(false && "EvalFromDot is only valid for dot-product kernels");
  return 0.0;
}

double KernelEval(const KernelParams& params, const Vec& u, const Vec& v) {
  return PreparedKernel(params).Eval(u, v);
}

// Gram matrices and PairwiseSquaredDistances build the upper triangle
// with the SIMD row kernels (row i covers columns [i, n)), then mirror it
// in a second pass. The mirrored value is the bit the (j, i) computation
// would have produced: the expanded d2 is symmetric because IEEE addition
// and multiplication commute and both sides accumulate k in the same
// serial order. The diagonal needs no special case: u_norm2 and the
// streamed dot accumulate the same products in the same order, so d2(i,i)
// is exactly 0.0 and the RBF row maps it to exactly 1.0.
GramMatrix::GramMatrix(const KernelParams& params,
                       const std::vector<Vec>& points)
    : n_(points.size()),
      data_(new double[points.size() * points.size()]) {
  MIVID_TRACE_SPAN("svm/gram");
  MIVID_SCOPED_TIMER("gram/build_seconds");
  RecordGramBuild(n_);
  if (n_ == 0) return;
  const PreparedKernel kernel(params);
  const SimdOpsTable& ops = SimdOps();
  if (params.type == KernelType::kRbf) {
    const double gamma = kernel.gamma();
    ForEachUpperSquaredDistanceRow(points, [&](size_t i, const double* d2) {
      ops.rbf_from_d2_row(gamma, d2, n_ - i, &data_[i * n_ + i]);
    });
  } else {
    const PackedFeatureMatrix packed = PackedFeatureMatrix::FromVecs(points);
    std::vector<double> buf(n_);
    for (size_t i = 0; i < n_; ++i) {
      const size_t count = n_ - i;
      ops.dot_row(points[i].data(), packed.dim(), packed.data() + i,
                  packed.stride(), count, buf.data());
      double* row = &data_[i * n_ + i];
      for (size_t t = 0; t < count; ++t) row[t] = kernel.EvalFromDot(buf[t]);
    }
  }
  MirrorLowerTriangle(n_, data_.get());
}

Matrix PairwiseSquaredDistances(const std::vector<Vec>& points) {
  const size_t n = points.size();
  Matrix d2(n, n);
  ForEachUpperSquaredDistanceRow(points, [&](size_t i, const double* row) {
    std::copy_n(row, n - i, d2.data() + i * n + i);
  });
  MirrorLowerTriangle(n, d2.data());
  return d2;
}

GramMatrix::GramMatrix(const KernelParams& params,
                       const Matrix& squared_distances)
    : n_(squared_distances.rows()),
      data_(new double[squared_distances.rows() * squared_distances.rows()]) {
  MIVID_TRACE_SPAN("svm/gram");
  MIVID_SCOPED_TIMER("gram/build_seconds");
  RecordGramBuild(n_);
  // A squared-distance matrix only determines the Gram for RBF kernels.
  assert(params.type == KernelType::kRbf);
  const PreparedKernel kernel(params);
  const double gamma = kernel.gamma();
  const SimdOpsTable& ops = SimdOps();
  for (size_t i = 0; i < n_; ++i) {
    ops.rbf_from_d2_row(gamma, squared_distances.data() + i * n_ + i, n_ - i,
                        &data_[i * n_ + i]);
  }
  MirrorLowerTriangle(n_, data_.get());
}

}  // namespace mivid
