// One-class Support Vector Machine (Schölkopf et al. [18]; paper Sec. 5.2).
//
// Primal (paper Eq. 7-8):
//   min_{w, xi, rho}  1/2 |w|^2 - rho + 1/(nu n) sum_i xi_i
//   s.t.              (w . phi(x_i)) >= rho - xi_i,  xi_i >= 0
// where nu in (0, 1] is the paper's delta: the upper bound on the fraction
// of training outliers and lower bound on the fraction of support vectors.
//
// Solved in the dual by SMO (libsvm-style working-set selection):
//   min_alpha  1/2 sum_ij alpha_i alpha_j K(x_i, x_j)
//   s.t.       0 <= alpha_i <= 1/(nu n),   sum_i alpha_i = 1
// Decision function: f(x) = sign( sum_i alpha_i K(x_i, x) - rho ).

#ifndef MIVID_SVM_ONE_CLASS_SVM_H_
#define MIVID_SVM_ONE_CLASS_SVM_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/packed_matrix.h"
#include "svm/kernel.h"

namespace mivid {

/// Training controls.
struct OneClassSvmOptions {
  KernelParams kernel;
  double nu = 0.5;          ///< outlier fraction bound; the paper's delta
  double tolerance = 1e-4;  ///< KKT violation tolerance
  int max_iterations = 100000;
};

/// A trained one-class model.
class OneClassSvmModel {
 public:
  OneClassSvmModel() = default;

  /// Signed decision value f(x) = sum_i alpha_i K(sv_i, x) - rho.
  /// Positive inside the learned support region.
  double DecisionValue(const Vec& x) const;

  /// Decision values for a batch of points, over a packed SoA block (one
  /// support vector streamed across all points per pass). Bit-identical
  /// to calling DecisionValue on each point (same accumulation order).
  /// `xs.dim()` must match the support vectors' dimension.
  std::vector<double> DecisionValues(const PackedFeatureMatrix& xs) const;

  /// Hard membership: DecisionValue(x) >= 0.
  bool Contains(const Vec& x) const { return DecisionValue(x) >= 0.0; }

  size_t num_support_vectors() const { return support_vectors_.size(); }
  const std::vector<Vec>& support_vectors() const { return support_vectors_; }
  const Vec& coefficients() const { return coefficients_; }
  double rho() const { return rho_; }
  const KernelParams& kernel() const { return kernel_; }
  int iterations_used() const { return iterations_used_; }

  /// Fraction of the training set the model rejected (f(x) < 0).
  double training_outlier_fraction() const {
    return training_outlier_fraction_;
  }

 private:
  friend class OneClassSvmTrainer;

  KernelParams kernel_;
  std::vector<Vec> support_vectors_;
  Vec coefficients_;  ///< alpha_i for each support vector
  double rho_ = 0.0;
  int iterations_used_ = 0;
  double training_outlier_fraction_ = 0.0;
};

/// SMO trainer for the one-class dual.
class OneClassSvmTrainer {
 public:
  explicit OneClassSvmTrainer(OneClassSvmOptions options)
      : options_(options) {}

  /// Trains on `points` (all from the "relevant" class). Requires at least
  /// one point, equal dimensions, and nu in (0, 1].
  Result<OneClassSvmModel> Train(const std::vector<Vec>& points) const;

  /// Same, but reuses a precomputed Gram matrix over `points` (e.g. built
  /// from PairwiseSquaredDistances). `gram.size()` must equal
  /// `points.size()` and `gram` must have been built with this trainer's
  /// kernel params.
  Result<OneClassSvmModel> Train(const std::vector<Vec>& points,
                                 const GramMatrix& gram) const;

 private:
  OneClassSvmOptions options_;
};

}  // namespace mivid

#endif  // MIVID_SVM_ONE_CLASS_SVM_H_
