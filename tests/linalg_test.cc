// Tests for linalg/: matrix ops, solvers, stats.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "linalg/stats.h"

namespace mivid {
namespace {

TEST(MatrixTest, ConstructAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, FromRowsAndTranspose) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.At(2, 1), 6.0);
}

TEST(MatrixTest, IdentityMultiplication) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix i = Matrix::Identity(2);
  EXPECT_DOUBLE_EQ(m.Multiply(i).MaxAbsDiff(m), 0.0);
  EXPECT_DOUBLE_EQ(i.Multiply(m).MaxAbsDiff(m), 0.0);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Vec v = m.Multiply(Vec{1.0, 1.0});
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
}

TEST(MatrixTest, RowColExtraction) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.Row(1), (Vec{3, 4}));
  EXPECT_EQ(m.Col(0), (Vec{1, 3}));
  m.SetRow(0, {9, 8});
  EXPECT_DOUBLE_EQ(m.At(0, 1), 8.0);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m = Matrix::FromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(VecOpsTest, DotNormDistance) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_EQ(Add({1, 2}, {3, 4}), (Vec{4, 6}));
  EXPECT_EQ(Sub({3, 4}, {1, 2}), (Vec{2, 2}));
  EXPECT_EQ(ScaleVec({1, 2}, 2.0), (Vec{2, 4}));
}

TEST(CholeskyTest, FactorAndSolveSpd) {
  // SPD matrix A = L L^T with known solution.
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  Result<Vec> x = CholeskySolve(a, {8, 7});
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  const Vec b = a.Multiply(x.value());
  EXPECT_NEAR(b[0], 8.0, 1e-10);
  EXPECT_NEAR(b[1], 7.0, 1e-10);
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // indefinite
  EXPECT_FALSE(CholeskyFactor(a).ok());
  Matrix rect(2, 3);
  EXPECT_FALSE(CholeskyFactor(rect).ok());
}

TEST(LeastSquaresTest, ExactSystemRecovered) {
  // Overdetermined but consistent.
  Matrix a = Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}});
  Vec b{2, 3, 5};
  Result<Vec> x = LeastSquaresQR(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 2.0, 1e-10);
  EXPECT_NEAR(x.value()[1], 3.0, 1e-10);
}

TEST(LeastSquaresTest, QrMatchesNormalEquations) {
  Rng rng(5);
  Matrix a(20, 4);
  Vec b(20);
  for (size_t r = 0; r < 20; ++r) {
    for (size_t c = 0; c < 4; ++c) a.At(r, c) = rng.Gaussian();
    b[r] = rng.Gaussian();
  }
  Result<Vec> x1 = LeastSquaresQR(a, b);
  Result<Vec> x2 = LeastSquaresNormal(a, b);
  ASSERT_TRUE(x1.ok());
  ASSERT_TRUE(x2.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x1.value()[i], x2.value()[i], 1e-8);
  }
}

TEST(LeastSquaresTest, ResidualIsOrthogonalToColumns) {
  Rng rng(6);
  Matrix a(15, 3);
  Vec b(15);
  for (size_t r = 0; r < 15; ++r) {
    for (size_t c = 0; c < 3; ++c) a.At(r, c) = rng.Gaussian();
    b[r] = rng.Gaussian();
  }
  Result<Vec> x = LeastSquaresQR(a, b);
  ASSERT_TRUE(x.ok());
  const Vec ax = a.Multiply(x.value());
  const Vec r = Sub(b, ax);
  // A^T r == 0 characterizes the least-squares optimum.
  const Vec atr = a.Transpose().Multiply(r);
  for (double v : atr) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(LeastSquaresTest, RejectsUnderdetermined) {
  Matrix a(2, 3);
  EXPECT_FALSE(LeastSquaresQR(a, {1, 2}).ok());
}

TEST(StatsTest, MeanVarianceStdDev) {
  const Vec v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
  EXPECT_NEAR(SampleStdDev(v), 2.138, 0.001);
}

TEST(StatsTest, EmptyAndDegenerate) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleStdDev({1.0}), 0.0);
  EXPECT_DOUBLE_EQ(Min({}), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, Percentiles) {
  Vec v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 100.0);
  EXPECT_NEAR(Percentile(v, 50), 50.5, 1e-9);
}

TEST(StatsTest, ColumnAggregates) {
  const std::vector<Vec> rows{{1, 10}, {3, 30}};
  EXPECT_EQ(ColumnMeans(rows), (Vec{2, 20}));
  const Vec s = ColumnStdDevs(rows);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 10.0);
}

TEST(StatsTest, PearsonCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(RunningStatsTest, MatchesBatchComputation) {
  Rng rng(11);
  RunningStats rs;
  Vec v;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    v.push_back(x);
    rs.Add(x);
  }
  EXPECT_EQ(rs.count(), 1000u);
  EXPECT_NEAR(rs.mean(), Mean(v), 1e-9);
  EXPECT_NEAR(rs.variance(), Variance(v), 1e-7);
  EXPECT_DOUBLE_EQ(rs.min(), Min(v));
  EXPECT_DOUBLE_EQ(rs.max(), Max(v));
}

}  // namespace
}  // namespace mivid
