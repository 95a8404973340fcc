#include "linalg/solve.h"

#include <cmath>

#include "common/string_util.h"

namespace mivid {

Result<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double d = a.At(j, j);
    for (size_t k = 0; k < j; ++k) d -= l.At(j, k) * l.At(j, k);
    if (d <= 0.0 || !std::isfinite(d)) {
      return Status::InvalidArgument(
          StrFormat("matrix not positive definite at pivot %zu (d=%g)", j, d));
    }
    l.At(j, j) = std::sqrt(d);
    for (size_t i = j + 1; i < n; ++i) {
      double s = a.At(i, j);
      for (size_t k = 0; k < j; ++k) s -= l.At(i, k) * l.At(j, k);
      l.At(i, j) = s / l.At(j, j);
    }
  }
  return l;
}

Result<Vec> CholeskySolve(const Matrix& a, const Vec& b) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("dimension mismatch in CholeskySolve");
  }
  MIVID_ASSIGN_OR_RETURN(Matrix l, CholeskyFactor(a));
  const size_t n = l.rows();
  // Forward substitution: L y = b.
  Vec y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l.At(i, k) * y[k];
    y[i] = s / l.At(i, i);
  }
  // Back substitution: L^T x = y.
  Vec x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l.At(k, ii) * x[k];
    x[ii] = s / l.At(ii, ii);
  }
  return x;
}

Result<Vec> LeastSquaresQR(const Matrix& a, const Vec& b) {
  const size_t m = a.rows(), n = a.cols();
  if (m < n) {
    return Status::InvalidArgument("LeastSquaresQR requires rows >= cols");
  }
  if (m != b.size()) {
    return Status::InvalidArgument("dimension mismatch in LeastSquaresQR");
  }
  // Householder QR applied in place to [A | b].
  Matrix r = a;
  Vec rhs = b;
  for (size_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k.
    double norm = 0.0;
    for (size_t i = k; i < m; ++i) norm += r.At(i, k) * r.At(i, k);
    norm = std::sqrt(norm);
    if (norm < 1e-14) {
      return Status::InvalidArgument(
          StrFormat("rank-deficient matrix at column %zu", k));
    }
    const double alpha = r.At(k, k) >= 0 ? -norm : norm;
    Vec v(m - k);
    v[0] = r.At(k, k) - alpha;
    for (size_t i = k + 1; i < m; ++i) v[i - k] = r.At(i, k);
    double vnorm2 = 0.0;
    for (double vv : v) vnorm2 += vv * vv;
    if (vnorm2 < 1e-28) continue;  // already triangular in this column

    // Apply H = I - 2 v v^T / (v^T v) to remaining columns and rhs.
    for (size_t c = k; c < n; ++c) {
      double dot = 0.0;
      for (size_t i = k; i < m; ++i) dot += v[i - k] * r.At(i, c);
      const double f = 2.0 * dot / vnorm2;
      for (size_t i = k; i < m; ++i) r.At(i, c) -= f * v[i - k];
    }
    double dot = 0.0;
    for (size_t i = k; i < m; ++i) dot += v[i - k] * rhs[i];
    const double f = 2.0 * dot / vnorm2;
    for (size_t i = k; i < m; ++i) rhs[i] -= f * v[i - k];
  }
  // Back substitution on the upper-triangular n x n block.
  Vec x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = rhs[ii];
    for (size_t c = ii + 1; c < n; ++c) s -= r.At(ii, c) * x[c];
    const double d = r.At(ii, ii);
    if (std::fabs(d) < 1e-14) {
      return Status::InvalidArgument("rank-deficient R in back substitution");
    }
    x[ii] = s / d;
  }
  return x;
}

Result<Vec> LeastSquaresNormal(const Matrix& a, const Vec& b) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("dimension mismatch in LeastSquaresNormal");
  }
  const Matrix at = a.Transpose();
  return CholeskySolve(at.Multiply(a), at.Multiply(b));
}

}  // namespace mivid
