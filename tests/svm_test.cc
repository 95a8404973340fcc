// Tests for svm/: kernels and the one-class SMO solver (Eq. 7-8).
// Includes parameterized property sweeps over the nu parameter.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"

namespace mivid {
namespace {

TEST(KernelTest, RbfProperties) {
  KernelParams params;
  params.type = KernelType::kRbf;
  params.sigma = 1.0;
  const Vec a{1, 2}, b{1, 2}, c{3, 4};
  EXPECT_DOUBLE_EQ(KernelEval(params, a, b), 1.0);           // K(x,x) = 1
  EXPECT_LT(KernelEval(params, a, c), 1.0);
  EXPECT_GT(KernelEval(params, a, c), 0.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(KernelEval(params, a, c), KernelEval(params, c, a));
  // exp(-|d|^2 / (2 sigma^2)) with |d|^2 = 8.
  EXPECT_NEAR(KernelEval(params, a, c), std::exp(-4.0), 1e-12);
}

TEST(KernelTest, LinearAndPoly) {
  KernelParams lin;
  lin.type = KernelType::kLinear;
  EXPECT_DOUBLE_EQ(KernelEval(lin, {1, 2}, {3, 4}), 11.0);
  KernelParams poly;
  poly.type = KernelType::kPoly;
  poly.poly_c = 1.0;
  poly.poly_degree = 2;
  EXPECT_DOUBLE_EQ(KernelEval(poly, {1, 0}, {2, 0}), 9.0);  // (2+1)^2
}

TEST(KernelTest, GramMatrixIsSymmetricWithUnitDiagonal) {
  Rng rng(5);
  std::vector<Vec> points;
  for (int i = 0; i < 10; ++i) {
    points.push_back({rng.Gaussian(), rng.Gaussian()});
  }
  KernelParams params;
  const GramMatrix gram(params, points);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(gram.At(i, i), 1.0);
    for (size_t j = 0; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(gram.At(i, j), gram.At(j, i));
    }
  }
}

std::vector<Vec> GaussianCloud(size_t n, double cx, double cy, double spread,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back({cx + rng.Gaussian() * spread,
                      cy + rng.Gaussian() * spread});
  }
  return points;
}

TEST(OneClassSvmTest, AcceptsClusterRejectsFarPoint) {
  const auto train = GaussianCloud(60, 0, 0, 0.4, 7);
  OneClassSvmOptions options;
  options.nu = 0.1;
  options.kernel.sigma = 1.0;
  Result<OneClassSvmModel> model = OneClassSvmTrainer(options).Train(train);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->Contains({0.0, 0.1}));
  EXPECT_FALSE(model->Contains({5.0, 5.0}));
  EXPECT_GT(model->DecisionValue({0.0, 0.0}),
            model->DecisionValue({2.0, 2.0}));
}

TEST(OneClassSvmTest, DecisionDecreasesWithDistanceFromCluster) {
  const auto train = GaussianCloud(80, 1, 1, 0.3, 9);
  OneClassSvmOptions options;
  options.nu = 0.2;
  options.kernel.sigma = 0.8;
  Result<OneClassSvmModel> model = OneClassSvmTrainer(options).Train(train);
  ASSERT_TRUE(model.ok());
  double prev = model->DecisionValue({1.0, 1.0});
  for (double r = 0.5; r <= 4.0; r += 0.5) {
    const double cur = model->DecisionValue({1.0 + r, 1.0});
    EXPECT_LT(cur, prev + 1e-9);
    prev = cur;
  }
}

/// Property (nu-property of the Schölkopf formulation): the fraction of
/// training points classified as outliers is close to (and bounded by
/// roughly) nu.
class OneClassNuPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(OneClassNuPropertyTest, TrainingOutlierFractionTracksNu) {
  const double nu = GetParam();
  const auto train = GaussianCloud(200, 0, 0, 1.0, 23);
  OneClassSvmOptions options;
  options.nu = nu;
  options.kernel.sigma = 1.5;
  Result<OneClassSvmModel> model = OneClassSvmTrainer(options).Train(train);
  ASSERT_TRUE(model.ok());
  // The nu-property holds asymptotically; allow a modest band.
  EXPECT_LE(model->training_outlier_fraction(), nu + 0.08);
  if (nu >= 0.1) {
    EXPECT_GE(model->training_outlier_fraction(), nu - 0.1);
  }
  // Support vector count is at least nu * n (other side of the property).
  EXPECT_GE(static_cast<double>(model->num_support_vectors()),
            nu * 200 - 1.0);
}

INSTANTIATE_TEST_SUITE_P(NuSweep, OneClassNuPropertyTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3, 0.5, 0.7));

TEST(OneClassSvmTest, CoefficientsSumToOneWithinBox) {
  const auto train = GaussianCloud(50, 0, 0, 1.0, 31);
  OneClassSvmOptions options;
  options.nu = 0.3;
  Result<OneClassSvmModel> model = OneClassSvmTrainer(options).Train(train);
  ASSERT_TRUE(model.ok());
  double sum = 0.0;
  const double c = 1.0 / (0.3 * 50);
  for (double a : model->coefficients()) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, c + 1e-9);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(OneClassSvmTest, SinglePointDegenerateCase) {
  OneClassSvmOptions options;
  options.nu = 0.5;
  Result<OneClassSvmModel> model =
      OneClassSvmTrainer(options).Train({{1.0, 2.0}});
  ASSERT_TRUE(model.ok());
  // The single training point sits on the boundary.
  EXPECT_NEAR(model->DecisionValue({1.0, 2.0}), 0.0, 1e-9);
  EXPECT_LT(model->DecisionValue({9.0, 9.0}), 0.0);
}

TEST(OneClassSvmTest, DuplicatePointsDoNotCrash) {
  std::vector<Vec> train(20, Vec{1.0, 1.0});
  OneClassSvmOptions options;
  options.nu = 0.4;
  Result<OneClassSvmModel> model = OneClassSvmTrainer(options).Train(train);
  ASSERT_TRUE(model.ok());
  EXPECT_GE(model->DecisionValue({1.0, 1.0}), -1e-9);
}

TEST(OneClassSvmTest, RejectsInvalidArguments) {
  OneClassSvmOptions options;
  options.nu = 0.0;
  EXPECT_FALSE(OneClassSvmTrainer(options).Train({{1.0}}).ok());
  options.nu = 1.5;
  EXPECT_FALSE(OneClassSvmTrainer(options).Train({{1.0}}).ok());
  options.nu = 0.5;
  EXPECT_FALSE(OneClassSvmTrainer(options).Train({}).ok());
  EXPECT_FALSE(
      OneClassSvmTrainer(options).Train({{1.0, 2.0}, {1.0}}).ok());
}

TEST(OneClassSvmTest, NuOneUsesAllPointsAsSupportVectors) {
  const auto train = GaussianCloud(30, 0, 0, 1.0, 37);
  OneClassSvmOptions options;
  options.nu = 1.0;
  Result<OneClassSvmModel> model = OneClassSvmTrainer(options).Train(train);
  ASSERT_TRUE(model.ok());
  // nu = 1: every alpha is at the (uniform) bound 1/n.
  EXPECT_EQ(model->num_support_vectors(), 30u);
  for (double a : model->coefficients()) EXPECT_NEAR(a, 1.0 / 30, 1e-9);
}

TEST(OneClassSvmTest, LinearKernelWorksToo) {
  OneClassSvmOptions options;
  options.nu = 0.2;
  options.kernel.type = KernelType::kLinear;
  const auto train = GaussianCloud(40, 5, 5, 0.5, 41);
  Result<OneClassSvmModel> model = OneClassSvmTrainer(options).Train(train);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->DecisionValue({5.0, 5.0}),
            model->DecisionValue({-5.0, -5.0}));
}

}  // namespace
}  // namespace mivid
