#include "gp/gp_regressor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "support/gp_grid.hpp"

namespace pamo::gp {
namespace {

/// Smooth 1-D test function.
double f1(double x) { return std::sin(3.0 * x) + 0.5 * x; }

/// Joint posterior draws over the input set (num_samples × |grid|) driven
/// by standard normals drawn row-major from `rng`.
la::Matrix draw_joint(const GpRegressor& gp, std::size_t num_samples,
                      Rng& rng) {
  la::Matrix z(num_samples, gp.grid().size());
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (std::size_t i = 0; i < z.cols(); ++i) z(s, i) = rng.normal();
  }
  return gp.sample_joint_given(z);
}

GpOptions fast_options() {
  GpOptions options;
  options.mle_restarts = 2;
  options.mle_max_evals = 150;
  return options;
}

TEST(GpRegressor, RejectsBadInput) {
  EXPECT_THROW(GpRegressor(Rows{}), Error);                      // empty set
  EXPECT_THROW(GpRegressor(Rows{{0.0}, {1.0, 2.0}}), Error);     // ragged
  EXPECT_THROW(GpRegressor(Rows{{0.0}, {1.0}, {0.0}}), Error);   // repeat
  GpRegressor gp({{0.0}, {1.0}}, fast_options());
  EXPECT_THROW(gp.fit({0}, {1.0}), Error);                       // < 2 points
  EXPECT_THROW(gp.fit({0, 1}, {1.0}), Error);                    // size mismatch
  EXPECT_THROW(gp.fit({0, 2}, {1.0, 2.0}), Error);               // off the set
  EXPECT_THROW(static_cast<void>(gp.predict_mean(0)), Error);    // before fit
}

TEST(GpRegressor, InterpolatesTrainingData) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 10; ++i) {
    const double xi = i * 0.2;
    x.push_back({xi});
    y.push_back(f1(xi));
  }
  GpRegressor gp(x, fast_options());
  gp.fit(indices_of(gp, x), y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(gp.predict_mean(i), y[i], 0.05) << "at x = " << x[i][0];
  }
}

TEST(GpRegressor, GeneralizesBetweenPoints) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 20; ++i) {
    const double xi = i * 0.1;
    x.push_back({xi});
    y.push_back(f1(xi));
  }
  GpRegressor gp(grid_of({x, {{0.15}, {0.95}, {1.55}}}), fast_options());
  gp.fit(indices_of(gp, x), y);
  for (double xt : {0.15, 0.95, 1.55}) {
    EXPECT_NEAR(gp.predict_mean(index_of(gp, {xt})), f1(xt), 0.05)
        << "x = " << xt;
  }
}

TEST(GpRegressor, VarianceSmallAtDataLargeFarAway) {
  std::vector<std::vector<double>> x{{0.0}, {0.1}, {0.2}, {0.3}, {0.4}};
  std::vector<double> y{0.0, 0.2, 0.3, 0.2, 0.0};
  GpRegressor gp(grid_of({x, {{5.0}}}), fast_options());
  gp.fit(indices_of(gp, x), y);
  const double var_at_data = posterior_var(gp, {0.2});
  const double var_far = posterior_var(gp, {5.0});
  EXPECT_LT(var_at_data, var_far);
  EXPECT_GE(var_at_data, 0.0);
}

TEST(GpRegressor, HandlesNoisyTargets) {
  // 120 noisy observations drawn uniformly over 81 points of [0, 2], and
  // checked at the points between them.
  Rows grid;
  for (int i = 0; i <= 80; ++i) grid.push_back({i * 0.025});
  Rng rng(3);
  GpRegressor gp(grid, fast_options());
  std::vector<std::size_t> at;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    at.push_back(rng.uniform_index(grid.size()));
    y.push_back(f1(grid[at.back()][0]) + rng.normal(0.0, 0.1));
  }
  gp.fit(at, y);
  // Predictions should be closer to the clean function than the noise std.
  std::vector<double> truth;
  std::vector<double> pred;
  for (std::size_t g = 2; g < grid.size(); g += 4) {
    truth.push_back(f1(grid[g][0]));
    pred.push_back(gp.predict_mean(g));
  }
  EXPECT_GT(r_squared(truth, pred), 0.95);
}

TEST(GpRegressor, ConstantTargetsDoNotCrash) {
  GpRegressor gp({{0.0}, {0.5}, {1.0}, {2.0}}, fast_options());
  gp.fit({0, 2, 3}, {5.0, 5.0, 5.0});
  EXPECT_NEAR(gp.predict_mean(1), 5.0, 0.2);
}

TEST(GpRegressor, FixedParamsSkipMle) {
  GpOptions options;
  KernelParams p;
  p.log_lengthscales = {std::log(0.3)};
  p.log_signal_var = 0.0;
  p.log_noise_var = std::log(1e-4);
  options.fixed_params = p;
  GpRegressor gp({{0.0}, {0.5}, {1.0}}, options);
  gp.fit({0, 1, 2}, {0.0, 1.0, 0.0});
  EXPECT_EQ(gp.params().log_lengthscales, p.log_lengthscales);
}

TEST(GpRegressor, UpdateAddsData) {
  GpRegressor gp({{0.0}, {1.0}, {2.0}}, fast_options());
  gp.fit({0, 1}, {0.0, 1.0});
  EXPECT_EQ(gp.num_points(), 2u);
  gp.update({2}, {2.0});
  EXPECT_EQ(gp.num_points(), 3u);
  EXPECT_NEAR(gp.predict_mean(2), 2.0, 0.1);
}

TEST(GpRegressor, PosteriorCovarianceIsSymmetricPsd) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 15; ++i) {
    x.push_back({i * 0.2});
    y.push_back(f1(i * 0.2));
  }
  GpRegressor gp(grid_of({x, {{0.1}, {0.7}, {1.9}, {3.5}}}), fast_options());
  gp.fit(indices_of(gp, x), y);
  const Posterior post = gp.posterior();
  const std::size_t m = gp.grid().size();
  ASSERT_EQ(post.mean.size(), m);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_GE(post.covariance(i, i), -1e-9);
    for (std::size_t j = 0; j < m; ++j) {
      // Formed on and above the diagonal and mirrored.
      EXPECT_EQ(post.covariance(i, j), post.covariance(j, i));  // pamo-analyze: allow(float-eq)
    }
  }
}

TEST(GpRegressor, PosteriorMeanMatchesPredictMean) {
  GpRegressor gp({{0.0}, {0.25}, {0.5}, {1.0}, {1.25}, {1.5}}, fast_options());
  gp.fit(indices_of(gp, {{0.0}, {0.5}, {1.0}, {1.5}}), {0.0, 1.0, 0.5, -0.5});
  const Posterior post = gp.posterior();
  for (std::size_t g = 0; g < gp.grid().size(); ++g) {
    // Both sum the same products in the same order.
    EXPECT_EQ(post.mean[g], gp.predict_mean(g));  // pamo-analyze: allow(float-eq)
  }
}

TEST(GpRegressor, JointSamplesHaveRightMoments) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    x.push_back({i * 0.3});
    y.push_back(f1(i * 0.3));
  }
  GpRegressor gp(grid_of({x, {{0.45}, {2.0}}}), fast_options());
  gp.fit(indices_of(gp, x), y);
  const Posterior post = gp.posterior();
  Rng rng(7);
  const la::Matrix samples = draw_joint(gp, 4000, rng);
  for (const std::size_t c : indices_of(gp, {{0.45}, {2.0}})) {
    double mean = 0.0;
    for (std::size_t s = 0; s < samples.rows(); ++s) mean += samples(s, c);
    mean /= static_cast<double>(samples.rows());
    const double sd = std::sqrt(std::max(1e-12, post.covariance(c, c)));
    EXPECT_NEAR(mean, post.mean[c], 5.0 * sd / std::sqrt(4000.0) + 1e-6);
  }
}

TEST(GpRegressor, TwoDimensionalFit) {
  // 60 observations drawn from the 11 × 11 grid over [0, 1]², checked at
  // the 5 × 5 points between the even ones.
  std::vector<double> axis;
  for (int i = 0; i <= 10; ++i) axis.push_back(i * 0.1);
  const Rows grid = product_grid(axis, axis);
  GpRegressor gp(grid, fast_options());
  std::vector<std::size_t> at;
  std::vector<double> y;
  Rng rng(11);
  auto f2 = [](const std::vector<double>& x) { return x[0] * x[0] + 0.5 * x[1]; };
  for (int i = 0; i < 60; ++i) {
    at.push_back(rng.uniform_index(grid.size()));
    y.push_back(f2(grid[at.back()]));
  }
  gp.fit(at, y);
  std::vector<double> truth;
  std::vector<double> pred;
  for (std::size_t a = 1; a < axis.size(); a += 2) {
    for (std::size_t b = 1; b < axis.size(); b += 2) {
      const std::size_t g = a * axis.size() + b;
      truth.push_back(f2(grid[g]));
      pred.push_back(gp.predict_mean(g));
    }
  }
  EXPECT_GT(r_squared(truth, pred), 0.98);
}

class GpKernelSweep : public ::testing::TestWithParam<KernelType> {};

TEST_P(GpKernelSweep, RecoversSmoothFunction) {
  GpOptions options = fast_options();
  options.kernel = GetParam();
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 25; ++i) {
    x.push_back({i * 0.08});
    y.push_back(f1(i * 0.08));
  }
  Rows between;
  for (double xt = 0.04; xt < 2.0; xt += 0.08) between.push_back({xt});
  GpRegressor gp(grid_of({x, between}), options);
  gp.fit(indices_of(gp, x), y);
  std::vector<double> truth;
  std::vector<double> pred;
  for (const auto& xt : between) {
    truth.push_back(f1(xt[0]));
    pred.push_back(gp.predict_mean(index_of(gp, xt)));
  }
  EXPECT_GT(r_squared(truth, pred), 0.99);
}

INSTANTIATE_TEST_SUITE_P(Kernels, GpKernelSweep,
                         ::testing::Values(KernelType::kRbf,
                                           KernelType::kMatern52));

}  // namespace
}  // namespace pamo::gp
