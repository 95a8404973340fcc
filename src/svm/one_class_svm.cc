#include "svm/one_class_svm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "linalg/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

namespace {

/// Points per block of the packed DecisionValues pass: three 64-double
/// rows (d2, kernel values, accumulators) take 1.5 KB and stay in L1
/// while every support vector streams across the block.
constexpr size_t kL1BlockPoints = 64;

}  // namespace

double OneClassSvmModel::DecisionValue(const Vec& x) const {
  const PreparedKernel kernel(kernel_);
  double acc = 0.0;
  for (size_t i = 0; i < support_vectors_.size(); ++i) {
    acc += coefficients_[i] * kernel.Eval(support_vectors_[i], x);
  }
  return acc - rho_;
}

std::vector<double> OneClassSvmModel::DecisionValues(
    const PackedFeatureMatrix& xs) const {
  std::vector<double> values(xs.n());
  if (xs.n() == 0) return values;
  const PreparedKernel kernel(kernel_);
  const SimdOpsTable& ops = SimdOps();
  const size_t dim = xs.dim();
  const size_t stride = xs.stride();
  const bool rbf = kernel_.type == KernelType::kRbf;
  const double gamma = kernel.gamma();
  // Points go in L1-sized blocks; one support vector is streamed across
  // the block per pass. Each point's accumulator takes the coefficient
  // terms in the same ascending-i order DecisionValue uses, so the sums
  // carry identical bits.
  std::vector<double> d2(kL1BlockPoints);
  std::vector<double> krow(kL1BlockPoints);
  std::vector<double> acc(kL1BlockPoints);
  for (size_t begin = 0; begin < xs.n(); begin += kL1BlockPoints) {
    const size_t count = std::min(kL1BlockPoints, xs.n() - begin);
    const double* x = xs.data() + begin;
    std::fill_n(acc.begin(), count, 0.0);
    for (size_t i = 0; i < support_vectors_.size(); ++i) {
      if (rbf) {
        ops.direct_d2_row(support_vectors_[i].data(), dim, x, stride, count,
                          d2.data());
        ops.rbf_from_d2_row(gamma, d2.data(), count, krow.data());
      } else {
        ops.dot_row(support_vectors_[i].data(), dim, x, stride, count,
                    krow.data());
        for (size_t t = 0; t < count; ++t) {
          krow[t] = kernel.EvalFromDot(krow[t]);
        }
      }
      ops.axpy(coefficients_[i], krow.data(), count, acc.data());
    }
    for (size_t t = 0; t < count; ++t) values[begin + t] = acc[t] - rho_;
  }
  MIVID_METRIC_COUNT("simd/kernel_row_cells",
                     xs.n() * support_vectors_.size());
  return values;
}

Result<OneClassSvmModel> OneClassSvmTrainer::Train(
    const std::vector<Vec>& points) const {
  const size_t n = points.size();
  if (n == 0) {
    return Status::InvalidArgument("one-class SVM needs at least one point");
  }
  const double nu = options_.nu;
  if (!(nu > 0.0 && nu <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("nu must be in (0, 1], got %g", nu));
  }
  for (const auto& p : points) {
    if (p.size() != points[0].size()) {
      return Status::InvalidArgument("inconsistent feature dimensions");
    }
  }

  const GramMatrix gram(options_.kernel, points);
  return Train(points, gram);
}

Result<OneClassSvmModel> OneClassSvmTrainer::Train(
    const std::vector<Vec>& points, const GramMatrix& gram) const {
  MIVID_TRACE_SPAN("svm/smo");
  MIVID_SCOPED_TIMER("svm/train_seconds");
  const size_t n = points.size();
  if (n == 0) {
    return Status::InvalidArgument("one-class SVM needs at least one point");
  }
  if (gram.size() != n) {
    return Status::InvalidArgument(
        StrFormat("gram size %zu does not match %zu points", gram.size(), n));
  }
  for (const auto& p : points) {
    if (p.size() != points[0].size()) {
      return Status::InvalidArgument("inconsistent feature dimensions");
    }
  }
  const double nu = options_.nu;
  if (!(nu > 0.0 && nu <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("nu must be in (0, 1], got %g", nu));
  }
  const double c = 1.0 / (nu * static_cast<double>(n));

  // Feasible start: sum(alpha) = 1, 0 <= alpha <= c.
  Vec alpha(n, 0.0);
  {
    const size_t k = static_cast<size_t>(std::floor(nu * static_cast<double>(n)));
    double remaining = 1.0;
    for (size_t i = 0; i < k && i < n; ++i) {
      alpha[i] = c;
      remaining -= c;
    }
    if (k < n && remaining > 1e-15) alpha[k] = remaining;
  }

  // Gradient of 1/2 a^T Q a is Q a, built as an i-outer sweep of axpy
  // updates over Gram rows: each grad[j] accumulates its sum over i in
  // ascending order.
  const SimdOpsTable& ops = SimdOps();
  Vec grad(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (alpha[i] == 0.0) continue;
    ops.axpy(alpha[i], gram.RowPtr(i), n, grad.data());
  }

  const double kTau = 1e-12;
  int iterations = 0;
  for (; iterations < options_.max_iterations; ++iterations) {
    // Working-set selection: i maximizes -G over the upward-movable set,
    // j minimizes -G over the downward-movable set.
    int i_up = -1, j_low = -1;
    double best_up = -std::numeric_limits<double>::infinity();
    double worst_low = std::numeric_limits<double>::infinity();
    for (size_t t = 0; t < n; ++t) {
      if (alpha[t] < c - kTau && -grad[t] > best_up) {
        best_up = -grad[t];
        i_up = static_cast<int>(t);
      }
      if (alpha[t] > kTau && -grad[t] < worst_low) {
        worst_low = -grad[t];
        j_low = static_cast<int>(t);
      }
    }
    if (i_up < 0 || j_low < 0 || best_up - worst_low < options_.tolerance) {
      break;  // KKT conditions satisfied
    }

    const size_t i = static_cast<size_t>(i_up);
    const size_t j = static_cast<size_t>(j_low);
    const double quad =
        std::max(gram.At(i, i) + gram.At(j, j) - 2.0 * gram.At(i, j), kTau);
    double delta = (grad[j] - grad[i]) / quad;
    // Box clipping: alpha_i += delta, alpha_j -= delta.
    delta = std::min(delta, c - alpha[i]);
    delta = std::min(delta, alpha[j]);
    if (delta <= 0.0) break;  // numerically stuck at a vertex

    alpha[i] += delta;
    alpha[j] -= delta;
    ops.axpy_diff(delta, gram.RowPtr(i), gram.RowPtr(j), n, grad.data());
  }

  // rho: decision threshold. For free support vectors the KKT conditions
  // give G_i = rho; average them. Fall back to the bound midpoint.
  double rho;
  {
    double free_sum = 0.0;
    size_t free_count = 0;
    double upper = std::numeric_limits<double>::infinity();   // min G, alpha=0
    double lower = -std::numeric_limits<double>::infinity();  // max G, alpha=c
    for (size_t t = 0; t < n; ++t) {
      if (alpha[t] > kTau && alpha[t] < c - kTau) {
        free_sum += grad[t];
        ++free_count;
      } else if (alpha[t] <= kTau) {
        upper = std::min(upper, grad[t]);
      } else {
        lower = std::max(lower, grad[t]);
      }
    }
    if (free_count > 0) {
      rho = free_sum / static_cast<double>(free_count);
    } else {
      if (!std::isfinite(upper)) upper = lower;
      if (!std::isfinite(lower)) lower = upper;
      rho = (upper + lower) / 2.0;
    }
  }

  OneClassSvmModel model;
  model.kernel_ = options_.kernel;
  model.rho_ = rho;
  model.iterations_used_ = iterations;
  size_t rejected = 0;
  for (size_t t = 0; t < n; ++t) {
    if (alpha[t] > kTau) {
      model.support_vectors_.push_back(points[t]);
      model.coefficients_.push_back(alpha[t]);
    }
    if (grad[t] - rho < 0.0) ++rejected;
  }
  model.training_outlier_fraction_ =
      static_cast<double>(rejected) / static_cast<double>(n);
  MIVID_METRIC_OBSERVE("svm/smo_iterations", iterations);
  MIVID_METRIC_OBSERVE("svm/support_vectors",
                       model.support_vectors_.size());
  return model;
}

}  // namespace mivid
