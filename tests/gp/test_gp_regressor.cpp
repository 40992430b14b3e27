#include "gp/gp_regressor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace pamo::gp {
namespace {

/// Smooth 1-D test function.
double f1(double x) { return std::sin(3.0 * x) + 0.5 * x; }

/// Joint posterior draws (num_samples × x.size()) driven by standard
/// normals drawn row-major from `rng`.
la::Matrix draw_joint(const GpRegressor& gp,
                      const std::vector<std::vector<double>>& x,
                      std::size_t num_samples, Rng& rng) {
  la::Matrix z(num_samples, x.size());
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (std::size_t i = 0; i < x.size(); ++i) z(s, i) = rng.normal();
  }
  return gp.sample_joint_given(x, z);
}

GpOptions fast_options() {
  GpOptions options;
  options.mle_restarts = 2;
  options.mle_max_evals = 150;
  return options;
}

TEST(GpRegressor, RejectsBadInput) {
  GpRegressor gp(fast_options());
  EXPECT_THROW(gp.fit({{0.0}}, {1.0}), Error);             // < 2 points
  EXPECT_THROW(gp.fit({{0.0}, {1.0}}, {1.0}), Error);      // size mismatch
  EXPECT_THROW(gp.fit({{0.0}, {1.0, 2.0}}, {1.0, 2.0}), Error);  // ragged
  EXPECT_THROW(static_cast<void>(gp.predict_mean({0.0})), Error);  // before fit
}

TEST(GpRegressor, InterpolatesTrainingData) {
  GpRegressor gp(fast_options());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 10; ++i) {
    const double xi = i * 0.2;
    x.push_back({xi});
    y.push_back(f1(xi));
  }
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(gp.predict_mean(x[i]), y[i], 0.05) << "at x = " << x[i][0];
  }
}

TEST(GpRegressor, GeneralizesBetweenPoints) {
  GpRegressor gp(fast_options());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 20; ++i) {
    const double xi = i * 0.1;
    x.push_back({xi});
    y.push_back(f1(xi));
  }
  gp.fit(x, y);
  for (double xt : {0.15, 0.95, 1.55}) {
    EXPECT_NEAR(gp.predict_mean({xt}), f1(xt), 0.05) << "x = " << xt;
  }
}

TEST(GpRegressor, VarianceSmallAtDataLargeFarAway) {
  GpRegressor gp(fast_options());
  std::vector<std::vector<double>> x{{0.0}, {0.1}, {0.2}, {0.3}, {0.4}};
  std::vector<double> y{0.0, 0.2, 0.3, 0.2, 0.0};
  gp.fit(x, y);
  const double var_at_data = gp.predict_var({0.2});
  const double var_far = gp.predict_var({5.0});
  EXPECT_LT(var_at_data, var_far);
  EXPECT_GE(var_at_data, 0.0);
}

TEST(GpRegressor, HandlesNoisyTargets) {
  Rng rng(3);
  GpRegressor gp(fast_options());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    const double xi = rng.uniform(0.0, 2.0);
    x.push_back({xi});
    y.push_back(f1(xi) + rng.normal(0.0, 0.1));
  }
  gp.fit(x, y);
  // Predictions should be closer to the clean function than the noise std.
  std::vector<double> truth;
  std::vector<double> pred;
  for (double xt = 0.05; xt < 2.0; xt += 0.1) {
    truth.push_back(f1(xt));
    pred.push_back(gp.predict_mean({xt}));
  }
  EXPECT_GT(r_squared(truth, pred), 0.95);
}

TEST(GpRegressor, ConstantTargetsDoNotCrash) {
  GpRegressor gp(fast_options());
  gp.fit({{0.0}, {1.0}, {2.0}}, {5.0, 5.0, 5.0});
  EXPECT_NEAR(gp.predict_mean({0.5}), 5.0, 0.2);
}

TEST(GpRegressor, FixedParamsSkipMle) {
  GpOptions options;
  KernelParams p;
  p.log_lengthscales = {std::log(0.3)};
  p.log_signal_var = 0.0;
  p.log_noise_var = std::log(1e-4);
  options.fixed_params = p;
  GpRegressor gp(options);
  gp.fit({{0.0}, {0.5}, {1.0}}, {0.0, 1.0, 0.0});
  EXPECT_EQ(gp.params().log_lengthscales, p.log_lengthscales);
}

TEST(GpRegressor, UpdateAddsData) {
  GpRegressor gp(fast_options());
  gp.fit({{0.0}, {1.0}}, {0.0, 1.0});
  EXPECT_EQ(gp.num_points(), 2u);
  gp.update({{2.0}}, {2.0});
  EXPECT_EQ(gp.num_points(), 3u);
  EXPECT_NEAR(gp.predict_mean({2.0}), 2.0, 0.1);
}

TEST(GpRegressor, PosteriorCovarianceIsSymmetricPsd) {
  GpRegressor gp(fast_options());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 15; ++i) {
    x.push_back({i * 0.2});
    y.push_back(f1(i * 0.2));
  }
  gp.fit(x, y);
  const std::vector<std::vector<double>> test{{0.1}, {0.7}, {1.9}, {3.5}};
  const Posterior post = gp.posterior(test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_GE(post.covariance(i, i), -1e-9);
    for (std::size_t j = 0; j < test.size(); ++j) {
      EXPECT_NEAR(post.covariance(i, j), post.covariance(j, i), 1e-10);
    }
  }
}

TEST(GpRegressor, PosteriorMeanMatchesPredictMean) {
  GpRegressor gp(fast_options());
  gp.fit({{0.0}, {0.5}, {1.0}, {1.5}}, {0.0, 1.0, 0.5, -0.5});
  const std::vector<std::vector<double>> test{{0.25}, {1.25}};
  const Posterior post = gp.posterior(test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_NEAR(post.mean[i], gp.predict_mean(test[i]), 1e-9);
  }
}

TEST(GpRegressor, JointSamplesHaveRightMoments) {
  GpRegressor gp(fast_options());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    x.push_back({i * 0.3});
    y.push_back(f1(i * 0.3));
  }
  gp.fit(x, y);
  const std::vector<std::vector<double>> test{{0.45}, {2.0}};
  const Posterior post = gp.posterior(test);
  Rng rng(7);
  const la::Matrix samples = draw_joint(gp, test, 4000, rng);
  for (std::size_t c = 0; c < test.size(); ++c) {
    double mean = 0.0;
    for (std::size_t s = 0; s < samples.rows(); ++s) mean += samples(s, c);
    mean /= static_cast<double>(samples.rows());
    const double sd = std::sqrt(std::max(1e-12, post.covariance(c, c)));
    EXPECT_NEAR(mean, post.mean[c], 5.0 * sd / std::sqrt(4000.0) + 1e-6);
  }
}

TEST(GpRegressor, TwoDimensionalFit) {
  GpRegressor gp(fast_options());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(11);
  auto f2 = [](double a, double b) { return a * a + 0.5 * b; };
  for (int i = 0; i < 60; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    x.push_back({a, b});
    y.push_back(f2(a, b));
  }
  gp.fit(x, y);
  std::vector<double> truth;
  std::vector<double> pred;
  for (double a = 0.1; a < 1.0; a += 0.2) {
    for (double b = 0.1; b < 1.0; b += 0.2) {
      truth.push_back(f2(a, b));
      pred.push_back(gp.predict_mean({a, b}));
    }
  }
  EXPECT_GT(r_squared(truth, pred), 0.98);
}

class GpKernelSweep : public ::testing::TestWithParam<KernelType> {};

TEST_P(GpKernelSweep, RecoversSmoothFunction) {
  GpOptions options = fast_options();
  options.kernel = GetParam();
  GpRegressor gp(options);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 25; ++i) {
    x.push_back({i * 0.08});
    y.push_back(f1(i * 0.08));
  }
  gp.fit(x, y);
  std::vector<double> truth;
  std::vector<double> pred;
  for (double xt = 0.04; xt < 2.0; xt += 0.08) {
    truth.push_back(f1(xt));
    pred.push_back(gp.predict_mean({xt}));
  }
  EXPECT_GT(r_squared(truth, pred), 0.99);
}

INSTANTIATE_TEST_SUITE_P(Kernels, GpKernelSweep,
                         ::testing::Values(KernelType::kRbf,
                                           KernelType::kMatern52));

}  // namespace
}  // namespace pamo::gp
