#include "trajectory/polyfit.h"

#include <cmath>

#include "common/string_util.h"
#include "linalg/solve.h"

namespace mivid {

double Polynomial::Eval(double x) const {
  if (coeffs_.empty()) return 0.0;
  const double u = (x - shift_) / scale_;
  double acc = 0.0;
  for (size_t i = coeffs_.size(); i-- > 0;) acc = acc * u + coeffs_[i];
  return acc;
}

Polynomial Polynomial::Derivative() const {
  if (coeffs_.size() <= 1) return Polynomial(Vec{0.0}, shift_, scale_);
  Vec d(coeffs_.size() - 1);
  for (size_t i = 1; i < coeffs_.size(); ++i) {
    // d/dx c_i u^i = c_i * i * u^(i-1) / scale
    d[i - 1] = coeffs_[i] * static_cast<double>(i) / scale_;
  }
  return Polynomial(std::move(d), shift_, scale_);
}

Result<Polynomial> FitPolynomial(const Vec& xs, const Vec& ys, int degree) {
  if (degree < 0) return Status::InvalidArgument("degree must be >= 0");
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("xs and ys must have equal length");
  }
  const size_t n = xs.size();
  const size_t k = static_cast<size_t>(degree) + 1;
  if (n < k) {
    return Status::InvalidArgument(
        StrFormat("need at least %zu samples for degree %d, got %zu", k,
                  degree, n));
  }

  // Center and scale the abscissae to roughly [-1, 1].
  double lo = xs[0], hi = xs[0];
  for (double x : xs) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const double shift = (lo + hi) / 2.0;
  double scale = (hi - lo) / 2.0;
  if (scale <= 0.0) {
    if (degree == 0) {
      // All abscissae identical: the best constant is the mean ordinate.
      double mean = 0.0;
      for (double y : ys) mean += y;
      return Polynomial(Vec{mean / static_cast<double>(n)}, shift, 1.0);
    }
    return Status::InvalidArgument("degenerate abscissae (all x identical)");
  }

  // Vandermonde matrix over the normalized variable (Eq. 2).
  Matrix a(n, k);
  for (size_t r = 0; r < n; ++r) {
    const double u = (xs[r] - shift) / scale;
    double p = 1.0;
    for (size_t c = 0; c < k; ++c) {
      a.At(r, c) = p;
      p *= u;
    }
  }

  Result<Vec> coeffs = LeastSquaresQR(a, ys);
  if (!coeffs.ok()) return coeffs.status();
  return Polynomial(std::move(coeffs).value(), shift, scale);
}

Result<FittedTrajectory> FitTrack(const Track& track, int degree) {
  const size_t n = track.points.size();
  if (n < static_cast<size_t>(degree) + 1) {
    return Status::InvalidArgument(
        StrFormat("track %d has %zu points, need %d for degree %d", track.id,
                  n, degree + 1, degree));
  }
  Vec ts(n), xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    ts[i] = track.points[i].frame;
    xs[i] = track.points[i].centroid.x;
    ys[i] = track.points[i].centroid.y;
  }
  FittedTrajectory fit;
  MIVID_ASSIGN_OR_RETURN(fit.x_of_t, FitPolynomial(ts, xs, degree));
  MIVID_ASSIGN_OR_RETURN(fit.y_of_t, FitPolynomial(ts, ys, degree));

  double sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Point2 p = fit.Eval(ts[i]);
    sq += SquaredDistance({p.x, p.y}, {xs[i], ys[i]});
  }
  fit.rms_error = std::sqrt(sq / static_cast<double>(n));
  return fit;
}

}  // namespace mivid
