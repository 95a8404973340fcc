// Kernel functions for the One-class SVM (paper Eq. 5-6).

#ifndef MIVID_SVM_KERNEL_H_
#define MIVID_SVM_KERNEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.h"

namespace mivid {

/// Supported kernel families.
enum class KernelType : uint8_t {
  kRbf = 0,     ///< exp(-|u - v|^2 / (2 sigma^2)); the paper's choice
  kLinear = 1,  ///< u . v
  kPoly = 2,    ///< (u . v + c)^d
};

/// Kernel configuration.
struct KernelParams {
  KernelType type = KernelType::kRbf;
  double sigma = 0.5;   ///< RBF bandwidth
  double poly_c = 1.0;  ///< polynomial offset
  int poly_degree = 3;
};

/// A kernel with its derived constants hoisted out of the evaluation loop
/// (the RBF gamma = 1/(2 sigma^2) division in particular). Construct once
/// per batch of evaluations, not per pair.
class PreparedKernel {
 public:
  explicit PreparedKernel(const KernelParams& params);

  const KernelParams& params() const { return params_; }
  double gamma() const { return gamma_; }

  /// K(u, v).
  double Eval(const Vec& u, const Vec& v) const;

  /// RBF value from a precomputed squared distance; valid only for kRbf.
  double EvalRbfFromSquaredDistance(double d2) const;

  /// K value from a precomputed dot product u.v; valid for kLinear/kPoly
  /// (the dot-product kernels). Bit-identical to Eval given the same dot.
  double EvalFromDot(double dot) const;

 private:
  KernelParams params_;
  double gamma_ = 0.0;  ///< 1/(2 sigma^2), RBF only
};

/// Evaluates K(u, v) under `params`. Prefer PreparedKernel in loops.
double KernelEval(const KernelParams& params, const Vec& u, const Vec& v);

/// Symmetric |points| x |points| matrix of squared Euclidean distances,
/// computed with the same expanded-formula row kernel as the RBF Gram, so
/// GramMatrix(params, PairwiseSquaredDistances(p)) equals
/// GramMatrix(params, p) bit for bit. All points must share a dimension.
Matrix PairwiseSquaredDistances(const std::vector<Vec>& points);

/// Precomputed symmetric kernel (Gram) matrix over a training set.
///
/// The one-class solver touches rows repeatedly; for the training sets of
/// an RF session a full dense Gram matrix is the fastest cache.
class GramMatrix {
 public:
  GramMatrix(const KernelParams& params, const std::vector<Vec>& points);

  /// RBF only: builds exp(-gamma * d2) from a precomputed squared-distance
  /// matrix (PairwiseSquaredDistances), so a caller that needs the
  /// distances too computes them once.
  GramMatrix(const KernelParams& params, const Matrix& squared_distances);

  size_t size() const { return n_; }
  double At(size_t i, size_t j) const { return data_[i * n_ + j]; }

  /// Contiguous row i (n() doubles) — the SMO axpy updates stream these.
  const double* RowPtr(size_t i) const { return data_.get() + i * n_; }

 private:
  size_t n_;
  // Raw buffer, not a vector: every cell is written by construction
  // (triangle pass + mirror), so the vector's n^2 zero-fill — ~8 MB of
  // memset at n = 1024 — would be pure overhead on the training hot path.
  std::unique_ptr<double[]> data_;
};

}  // namespace mivid

#endif  // MIVID_SVM_KERNEL_H_
