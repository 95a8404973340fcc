// Packed structure-of-arrays feature matrix.
//
// Corpora and bags lower their instance features into this layout once
// (at load or first use), so every downstream distance/kernel primitive
// streams contiguous memory instead of chasing per-instance Vec
// allocations. Layout: X[k * stride + j] holds feature k of point j,
// with stride = n rounded up to a multiple of 8 doubles (a full cache
// line) and the padding lanes zero-filled. This is exactly the `x`
// operand shape of the SimdOpsTable row primitives (simd.h).
//
// The storage may be owned (FromPoints) or borrowed from an external
// mapping (View, used by the zero-copy corpus loader in src/db/): a
// type-erased keepalive handle pins whatever backs the pointer.
// Squared norms are precomputed with the same serial per-point
// accumulation order as Dot(p, p), so each norm is bit-identical to
// Dot(p, p) on the AoS point.

#ifndef MIVID_LINALG_PACKED_MATRIX_H_
#define MIVID_LINALG_PACKED_MATRIX_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/matrix.h"

namespace mivid {

class PackedFeatureMatrix {
 public:
  /// Rounds a point count up to the packed lane stride (multiple of 8).
  static size_t StrideFor(size_t n) { return (n + 7) & ~size_t{7}; }

  /// Empty matrix (n() == 0).
  PackedFeatureMatrix() = default;

  /// Packs `n` points of dimension `dim`, reading point j from
  /// `points[j]` (each must have exactly `dim` entries). Owns storage.
  static PackedFeatureMatrix FromPoints(const std::vector<const Vec*>& points,
                                        size_t dim);

  /// Convenience overload over value vectors.
  static PackedFeatureMatrix FromVecs(const std::vector<Vec>& points);

  /// Wraps externally owned SoA storage (e.g. an mmap'd corpus file).
  /// `data` must hold dim * stride doubles laid out as X[k*stride+j]
  /// with zeroed padding; `keepalive` pins the backing storage for the
  /// lifetime of this matrix and its copies. Norms are computed here.
  static PackedFeatureMatrix View(const double* data, size_t n, size_t dim,
                                  size_t stride,
                                  std::shared_ptr<const void> keepalive);

  size_t n() const { return n_; }
  size_t dim() const { return dim_; }
  size_t stride() const { return stride_; }
  bool empty() const { return n_ == 0; }

  /// Base of the packed block (dim * stride doubles).
  const double* data() const { return data_; }

  /// Lane base for feature k: lane(k)[j] = feature k of point j.
  const double* lane(size_t k) const { return data_ + k * stride_; }

  /// Feature k of point j.
  double At(size_t k, size_t j) const { return data_[k * stride_ + j]; }

  /// |x_j|^2 for every point, bit-identical to Dot(p_j, p_j).
  const double* squared_norms() const { return norms_->data(); }

  /// Gathers point j back into a contiguous vector.
  void CopyPoint(size_t j, Vec* out) const;

 private:
  size_t n_ = 0;
  size_t dim_ = 0;
  size_t stride_ = 0;
  const double* data_ = nullptr;
  std::shared_ptr<const void> keepalive_;  // owns or pins `data_`
  std::shared_ptr<const std::vector<double>> norms_;
};

}  // namespace mivid

#endif  // MIVID_LINALG_PACKED_MATRIX_H_
