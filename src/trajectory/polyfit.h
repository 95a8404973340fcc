// Least-squares polynomial curve fitting (paper Sec. 3.2, Eq. 1-2).
//
// A vehicle trajectory's centroids are approximated by a k-th degree
// polynomial y = a0 + a1 x + ... + ak x^k whose coefficients minimize the
// squared deviation. The first derivative gives the tangent (velocity)
// along the curve. Trajectories are fitted per-coordinate against time to
// remain well-defined for vertical motion.

#ifndef MIVID_TRAJECTORY_POLYFIT_H_
#define MIVID_TRAJECTORY_POLYFIT_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "trajectory/trajectory.h"

namespace mivid {

/// A fitted univariate polynomial over a normalized abscissa:
/// p(x) = sum_i c_i * u^i with u = (x - shift) / scale.
///
/// The normalization keeps the Vandermonde system well conditioned when x
/// spans thousands of frames; it is transparent to callers of Eval().
class Polynomial {
 public:
  Polynomial() = default;

  /// Coefficients in ascending-power order over the normalized variable.
  Polynomial(Vec coeffs, double shift = 0.0, double scale = 1.0)
      : coeffs_(std::move(coeffs)), shift_(shift), scale_(scale) {}

  size_t degree() const { return coeffs_.empty() ? 0 : coeffs_.size() - 1; }
  const Vec& coeffs() const { return coeffs_; }
  double shift() const { return shift_; }
  double scale() const { return scale_; }

  /// Evaluates p(x) by Horner's rule.
  double Eval(double x) const;

  /// The derivative polynomial dp/dx (chain rule folds in 1/scale).
  Polynomial Derivative() const;

 private:
  Vec coeffs_;
  double shift_ = 0.0;
  double scale_ = 1.0;
};

/// Fits a degree-`degree` polynomial to the samples (xs[i], ys[i]).
/// Requires xs.size() == ys.size() >= degree + 1 and non-degenerate xs.
/// Abscissae are centered and scaled internally for conditioning, and the
/// Vandermonde system (Eq. 2) is solved by Householder QR.
Result<Polynomial> FitPolynomial(const Vec& xs, const Vec& ys, int degree);

/// A planar trajectory fitted as x(t), y(t) against the frame index.
struct FittedTrajectory {
  Polynomial x_of_t;
  Polynomial y_of_t;
  double rms_error = 0.0;  ///< combined per-point RMS residual

  /// Position on the fitted curve at frame t.
  Point2 Eval(double t) const { return {x_of_t.Eval(t), y_of_t.Eval(t)}; }

  /// Velocity (tangent) vector at frame t, px/frame.
  Vec2 Velocity(double t) const {
    return {x_of_t.Derivative().Eval(t), y_of_t.Derivative().Eval(t)};
  }
};

/// Fits a track's centroids with degree-`degree` polynomials in time.
/// Requires at least degree+1 points.
Result<FittedTrajectory> FitTrack(const Track& track, int degree);

}  // namespace mivid

#endif  // MIVID_TRAJECTORY_POLYFIT_H_
