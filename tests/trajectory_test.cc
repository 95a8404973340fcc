// Tests for trajectory/: tracks, resampling, polynomial fitting (Eq. 1-2).
// Includes parameterized property sweeps over polynomial degrees.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "trajectory/polyfit.h"
#include "trajectory/trajectory.h"

namespace mivid {
namespace {

TEST(TrackTest, BasicAccessors) {
  Track t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.first_frame(), -1);
  t.points = {{0, {0, 0}, {}}, {5, {3, 4}, {}}, {10, {6, 8}, {}}};
  EXPECT_EQ(t.first_frame(), 0);
  EXPECT_EQ(t.last_frame(), 10);
  EXPECT_DOUBLE_EQ(t.PathLength(), 10.0);
}

TEST(TrackTest, CentroidAtBinarySearch) {
  Track t;
  t.points = {{2, {1, 1}, {}}, {7, {2, 2}, {}}, {12, {3, 3}, {}}};
  Point2 p;
  EXPECT_TRUE(t.CentroidAt(7, &p));
  EXPECT_EQ(p, Point2(2, 2));
  EXPECT_FALSE(t.CentroidAt(8, &p));
  EXPECT_FALSE(t.CentroidAt(-1, &p));
  EXPECT_TRUE(t.CentroidAt(12, &p));
}

TEST(SampleEveryTest, AlignsToGrid) {
  Track t;
  for (int f = 3; f <= 23; ++f) t.points.push_back({f, {1.0 * f, 0}, {}});
  const auto sampled = SampleEvery(t, 5);
  ASSERT_EQ(sampled.size(), 4u);  // frames 5, 10, 15, 20
  EXPECT_EQ(sampled[0].frame, 5);
  EXPECT_EQ(sampled[3].frame, 20);
}

TEST(SampleEveryTest, SkipsGaps) {
  Track t;
  for (int f = 0; f <= 30; ++f) {
    if (f >= 9 && f <= 11) continue;  // observation gap covering frame 10
    t.points.push_back({f, {1.0 * f, 0}, {}});
  }
  const auto sampled = SampleEvery(t, 5);
  std::vector<int> frames;
  for (const auto& p : sampled) frames.push_back(p.frame);
  EXPECT_EQ(frames, (std::vector<int>{0, 5, 15, 20, 25, 30}));
}

TEST(SampleEveryTest, EdgeCases) {
  Track empty;
  EXPECT_TRUE(SampleEvery(empty, 5).empty());
  Track t;
  t.points = {{7, {1, 1}, {}}};
  EXPECT_TRUE(SampleEvery(t, 5).empty());  // no grid frame covered
  EXPECT_TRUE(SampleEvery(t, 0).empty());  // invalid stride
}

TEST(PolynomialTest, EvalAndDerivative) {
  // p(x) = 2 + 3x + x^2 over the identity normalization.
  Polynomial p({2, 3, 1});
  EXPECT_DOUBLE_EQ(p.Eval(0), 2.0);
  EXPECT_DOUBLE_EQ(p.Eval(2), 12.0);
  Polynomial d = p.Derivative();
  EXPECT_DOUBLE_EQ(d.Eval(0), 3.0);  // p' = 3 + 2x
  EXPECT_DOUBLE_EQ(d.Eval(2), 7.0);
}

TEST(PolynomialTest, DerivativeRespectsScale) {
  // p(x) = u^2 with u = (x - 10) / 2  =>  dp/dx = 2u * (1/2) = u.
  Polynomial p({0, 0, 1}, 10.0, 2.0);
  EXPECT_DOUBLE_EQ(p.Eval(14), 4.0);           // u = 2
  EXPECT_DOUBLE_EQ(p.Derivative().Eval(14), 2.0);
}

TEST(PolynomialTest, EmptyAndConstant) {
  Polynomial empty;
  EXPECT_DOUBLE_EQ(empty.Eval(3), 0.0);
  Polynomial c({5.0});
  EXPECT_DOUBLE_EQ(c.Eval(100), 5.0);
  EXPECT_DOUBLE_EQ(c.Derivative().Eval(1), 0.0);
}

/// Property: fitting a degree-k polynomial to samples drawn exactly from a
/// degree-k polynomial recovers it (evaluated anywhere in range).
class PolyfitExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(PolyfitExactnessTest, RecoversGeneratingPolynomial) {
  const int degree = GetParam();
  Rng rng(100 + static_cast<uint64_t>(degree));
  Vec coeffs(static_cast<size_t>(degree) + 1);
  for (auto& c : coeffs) c = rng.Uniform(-2, 2);

  auto truth = [&](double x) {
    double acc = 0;
    for (size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
    return acc;
  };

  Vec xs, ys;
  for (int i = 0; i <= 3 * degree + 4; ++i) {
    const double x = -1.0 + 2.0 * i / (3 * degree + 4);
    xs.push_back(x);
    ys.push_back(truth(x));
  }
  Result<Polynomial> fit = FitPolynomial(xs, ys, degree);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  for (double x = -1.0; x <= 1.0; x += 0.13) {
    EXPECT_NEAR(fit->Eval(x), truth(x), 1e-7) << "degree " << degree;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolyfitExactnessTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

/// Property: the fit is invariant to abscissa shift (conditioning guard).
class PolyfitShiftInvarianceTest : public ::testing::TestWithParam<double> {};

TEST_P(PolyfitShiftInvarianceTest, LargeAbscissaeStayAccurate) {
  const double shift = GetParam();
  // y = 0.5 + 0.1 (x - shift) - 0.01 (x - shift)^2
  Vec xs, ys;
  for (int i = 0; i < 30; ++i) {
    const double u = i * 1.0;
    xs.push_back(shift + u);
    ys.push_back(0.5 + 0.1 * u - 0.01 * u * u);
  }
  Result<Polynomial> fit = FitPolynomial(xs, ys, 2);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->Eval(shift + 15.0), 0.5 + 1.5 - 2.25, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Shifts, PolyfitShiftInvarianceTest,
                         ::testing::Values(0.0, 100.0, 2500.0, 1e6));

TEST(PolyfitTest, NoisyDataResidualIsSmall) {
  Rng rng(42);
  Vec xs, ys;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.1;
    xs.push_back(x);
    ys.push_back(1.0 + 2.0 * x + rng.Gaussian(0, 0.05));
  }
  Result<Polynomial> fit = FitPolynomial(xs, ys, 1);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->Eval(5.0), 11.0, 0.1);
}

TEST(PolyfitTest, ErrorsOnBadInput) {
  EXPECT_FALSE(FitPolynomial({1, 2}, {1}, 1).ok());          // size mismatch
  EXPECT_FALSE(FitPolynomial({1, 2}, {1, 2}, 2).ok());       // too few points
  EXPECT_FALSE(FitPolynomial({3, 3, 3}, {1, 2, 3}, 1).ok()); // degenerate xs
  EXPECT_FALSE(FitPolynomial({1, 2}, {3, 4}, -1).ok());      // bad degree
}

TEST(PolyfitTest, DegenerateAbscissaeDegreeZeroIsMean) {
  Result<Polynomial> fit = FitPolynomial({5, 5, 5}, {1, 2, 3}, 0);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit->Eval(5), 2.0);
}

TEST(FitTrackTest, FourthDegreeFitMatchesPaperFigure2Setup) {
  // A smooth curved trajectory like the paper's Fig. 2: fit x(t), y(t)
  // with a 4th-degree polynomial.
  Track t;
  for (int f = 0; f <= 100; f += 5) {
    const double tt = f / 100.0;
    t.points.push_back(
        {f, {10 + 300 * tt, 200 - 180 * tt + 120 * tt * tt - 40 * tt * tt * tt},
         {}});
  }
  Result<FittedTrajectory> fit = FitTrack(t, 4);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(fit->rms_error, 0.01);
  // Velocity (tangent) is the analytic derivative.
  const Vec2 v = fit->Velocity(50.0);
  EXPECT_NEAR(v.x, 3.0, 0.01);  // dx/df = 300/100
}

TEST(FitTrackTest, RequiresEnoughPoints) {
  Track t;
  t.points = {{0, {0, 0}, {}}, {5, {1, 1}, {}}};
  EXPECT_FALSE(FitTrack(t, 4).ok());
  EXPECT_TRUE(FitTrack(t, 1).ok());
}

TEST(FitTrackTest, VerticalMotionIsWellDefined) {
  // A trajectory moving straight down: x constant, y varies. Fitting
  // y as a function of x would be degenerate; fitting vs time works.
  Track t;
  for (int f = 0; f <= 50; f += 5) {
    t.points.push_back({f, {100.0, 10.0 + 2.0 * f}, {}});
  }
  Result<FittedTrajectory> fit = FitTrack(t, 2);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(fit->rms_error, 1e-9);
  const Vec2 v = fit->Velocity(25.0);
  EXPECT_NEAR(v.x, 0.0, 1e-9);
  EXPECT_NEAR(v.y, 2.0, 1e-9);
}

}  // namespace
}  // namespace mivid
