// Robustness layer of GpRegressor: sanitization of non-finite rows,
// outlier down-weighting via iteratively reweighted noise, and the
// recorded fit/posterior jitter diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"

namespace pamo::gp {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

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

void clean_data(std::vector<std::vector<double>>& x, std::vector<double>& y,
                int n = 20) {
  for (int i = 0; i <= n; ++i) {
    const double xi = i * 2.0 / n;
    x.push_back({xi});
    y.push_back(f1(xi));
  }
}

TEST(GpRobust, NonFiniteDataIsRejectedLoudlyByDefault) {
  GpRegressor gp(fast_options());
  EXPECT_THROW(gp.fit({{0.0}, {1.0}, {2.0}}, {0.0, kNan, 2.0}), Error);
  EXPECT_THROW(gp.fit({{0.0}, {kInf}, {2.0}}, {0.0, 1.0, 2.0}), Error);

  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  gp.fit(x, y);
  EXPECT_THROW(gp.update({{0.5}}, {kNan}), Error);
}

TEST(GpRobust, RejectNonFiniteDropsRowsAndCounts) {
  GpOptions options = fast_options();
  options.reject_nonfinite = true;
  GpRegressor gp(options);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  const std::size_t clean_rows = x.size();
  x.push_back({0.77});
  y.push_back(kNan);
  x.push_back({kInf});
  y.push_back(0.5);
  gp.fit(x, y);
  EXPECT_EQ(gp.num_points(), clean_rows);
  EXPECT_EQ(gp.diagnostics().rows_rejected, 2u);
  EXPECT_NEAR(gp.predict_mean({0.95}), f1(0.95), 0.05);

  // update() sanitizes too, and the tally accumulates.
  gp.update({{0.4}, {0.6}}, {kNan, f1(0.6)});
  EXPECT_EQ(gp.num_points(), clean_rows + 1);
  EXPECT_EQ(gp.diagnostics().rows_rejected, 3u);
}

TEST(GpRobust, TooFewFiniteRowsStillThrows) {
  GpOptions options = fast_options();
  options.reject_nonfinite = true;
  GpRegressor gp(options);
  EXPECT_THROW(gp.fit({{0.0}, {1.0}, {2.0}}, {0.5, kNan, kNan}), Error);
}

TEST(GpRobust, RobustNoiseAbsorbsAHeavyOutlier) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  x.push_back({1.0});
  y.push_back(f1(1.0) + 25.0);  // heavy-tailed telemetry artifact

  GpOptions plain = fast_options();
  GpRegressor naive(plain);
  naive.fit(x, y);

  GpOptions robust_options = fast_options();
  robust_options.robust_noise = true;
  GpRegressor robust(robust_options);
  robust.fit(x, y);
  EXPECT_GE(robust.diagnostics().outliers_downweighted, 1u);

  // Down-weighting the outlier keeps the posterior near the truth where
  // the naive fit is dragged toward the corrupt observation.
  const double truth = f1(1.0);
  EXPECT_LT(std::fabs(robust.predict_mean({1.0}) - truth),
            std::fabs(naive.predict_mean({1.0}) - truth));
}

TEST(GpRobust, RobustModeIsBitForBitNoOpOnCleanData) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);

  GpRegressor plain(fast_options());
  plain.fit(x, y);

  GpOptions robust_options = fast_options();
  robust_options.robust_noise = true;
  robust_options.reject_nonfinite = true;
  robust_options.robust_threshold = 10.0;  // nothing crosses on clean data
  GpRegressor robust(robust_options);
  robust.fit(x, y);

  EXPECT_EQ(robust.diagnostics().outliers_downweighted, 0u);
  EXPECT_EQ(robust.diagnostics().rows_rejected, 0u);
  for (double xt : {0.15, 0.95, 1.55}) {
    EXPECT_EQ(robust.predict_mean({xt}), plain.predict_mean({xt}));
    EXPECT_EQ(robust.predict_var({xt}), plain.predict_var({xt}));
  }
}

TEST(GpRobust, PosteriorJitterIsConfigurableAndRecorded) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  GpRegressor gp(fast_options());
  gp.fit(x, y);

  // Duplicated prediction points make the posterior covariance singular:
  // sampling must repair it with recorded jitter instead of throwing.
  const std::vector<std::vector<double>> duplicated = {
      {0.5}, {0.5}, {0.5}, {1.5}, {1.5}};
  Rng rng(7);
  const la::Matrix samples = draw_joint(gp, duplicated, 8, rng);
  EXPECT_EQ(samples.rows(), 8u);
  EXPECT_GT(gp.diagnostics().posterior_jitter, 0.0);
}

TEST(GpRobust, CleanFitHasZeroedDiagnostics) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  GpRegressor gp(fast_options());
  gp.fit(x, y);
  EXPECT_EQ(gp.diagnostics().rows_rejected, 0u);
  EXPECT_EQ(gp.diagnostics().outliers_downweighted, 0u);
  EXPECT_EQ(gp.diagnostics().cholesky_recoveries, 0u);
  EXPECT_EQ(gp.diagnostics().posterior_jitter, 0.0);
}

}  // namespace
}  // namespace pamo::gp
