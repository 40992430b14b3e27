// Robustness layer of GpRegressor: sanitization of non-finite rows,
// outlier down-weighting via iteratively reweighted noise, and the
// recorded fit/posterior jitter diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "support/gp_grid.hpp"

namespace pamo::gp {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

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

void clean_data(std::vector<std::vector<double>>& x, std::vector<double>& y,
                int n = 20) {
  for (int i = 0; i <= n; ++i) {
    const double xi = i * 2.0 / n;
    x.push_back({xi});
    y.push_back(f1(xi));
  }
}

/// The clean_data inputs and the probes between them.
Rows probe_grid() {
  Rows x;
  std::vector<double> y;
  clean_data(x, y);
  return grid_of({x, {{0.15}, {0.4}, {0.5}, {0.6}, {0.95}, {1.55}}});
}

TEST(GpRobust, NonFiniteDataIsRejectedLoudlyByDefault) {
  GpRegressor gp(probe_grid(), fast_options());
  EXPECT_THROW(gp.fit(indices_of(gp, {{0.0}, {1.0}, {2.0}}), {0.0, kNan, 2.0}),
               Error);
  EXPECT_THROW(GpRegressor({{0.0}, {kInf}, {2.0}}), Error);

  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  gp.fit(indices_of(gp, x), y);
  EXPECT_THROW(gp.update({index_of(gp, {0.5})}, {kNan}), Error);
}

TEST(GpRobust, RejectNonFiniteDropsRowsAndCounts) {
  GpOptions options = fast_options();
  options.reject_nonfinite = true;
  GpRegressor gp(probe_grid(), options);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  const std::size_t clean_rows = x.size();
  x.push_back({0.15});
  y.push_back(kNan);
  x.push_back({1.55});
  y.push_back(kInf);
  gp.fit(indices_of(gp, x), y);
  EXPECT_EQ(gp.num_points(), clean_rows);
  EXPECT_EQ(gp.diagnostics().rows_rejected, 2u);
  EXPECT_NEAR(gp.predict_mean(index_of(gp, {0.95})), f1(0.95), 0.05);

  // update() sanitizes too, and the tally accumulates.
  gp.update(indices_of(gp, {{0.4}, {0.6}}), {kNan, f1(0.6)});
  EXPECT_EQ(gp.num_points(), clean_rows + 1);
  EXPECT_EQ(gp.diagnostics().rows_rejected, 3u);
}

TEST(GpRobust, TooFewFiniteRowsStillThrows) {
  GpOptions options = fast_options();
  options.reject_nonfinite = true;
  GpRegressor gp({{0.0}, {1.0}, {2.0}}, options);
  EXPECT_THROW(gp.fit({0, 1, 2}, {0.5, kNan, kNan}), Error);
}

TEST(GpRobust, RobustNoiseAbsorbsAHeavyOutlier) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  x.push_back({1.0});
  y.push_back(f1(1.0) + 25.0);  // heavy-tailed telemetry artifact

  GpOptions plain = fast_options();
  GpRegressor naive(probe_grid(), plain);
  naive.fit(indices_of(naive, x), y);

  GpOptions robust_options = fast_options();
  robust_options.robust_noise = true;
  GpRegressor robust(probe_grid(), robust_options);
  robust.fit(indices_of(robust, x), y);
  EXPECT_GE(robust.diagnostics().outliers_downweighted, 1u);

  // Down-weighting the outlier keeps the posterior near the truth where
  // the naive fit is dragged toward the corrupt observation.
  const double truth = f1(1.0);
  const std::size_t at = index_of(robust, {1.0});
  EXPECT_LT(std::fabs(robust.predict_mean(at) - truth),
            std::fabs(naive.predict_mean(at) - truth));
}

TEST(GpRobust, RobustModeIsBitForBitNoOpOnCleanData) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);

  GpRegressor plain(probe_grid(), fast_options());
  plain.fit(indices_of(plain, x), y);

  GpOptions robust_options = fast_options();
  robust_options.robust_noise = true;
  robust_options.reject_nonfinite = true;
  robust_options.robust_threshold = 10.0;  // nothing crosses on clean data
  GpRegressor robust(probe_grid(), robust_options);
  robust.fit(indices_of(robust, x), y);

  EXPECT_EQ(robust.diagnostics().outliers_downweighted, 0u);
  EXPECT_EQ(robust.diagnostics().rows_rejected, 0u);
  for (double xt : {0.15, 0.95, 1.55}) {
    const std::size_t g = index_of(plain, {xt});
    EXPECT_EQ(robust.predict_mean(g), plain.predict_mean(g));
    EXPECT_EQ(posterior_var(robust, {xt}), posterior_var(plain, {xt}));
  }
}

TEST(GpRobust, PosteriorJitterIsConfigurableAndRecorded) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  // Points a hair apart make the posterior covariance numerically
  // singular: sampling must repair it with recorded jitter instead of
  // throwing.
  GpRegressor gp(grid_of({x, {{0.5 + 1e-12}, {0.5 + 2e-12}, {1.5 + 1e-12}}}),
                 fast_options());
  gp.fit(indices_of(gp, x), y);
  Rng rng(7);
  const la::Matrix samples = draw_joint(gp, 8, rng);
  EXPECT_EQ(samples.rows(), 8u);
  EXPECT_GT(gp.diagnostics().posterior_jitter, 0.0);
}

TEST(GpRobust, CleanFitHasZeroedDiagnostics) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  clean_data(x, y);
  GpRegressor gp(x, fast_options());
  gp.fit(indices_of(gp, x), y);
  EXPECT_EQ(gp.diagnostics().rows_rejected, 0u);
  EXPECT_EQ(gp.diagnostics().outliers_downweighted, 0u);
  EXPECT_EQ(gp.diagnostics().cholesky_recoveries, 0u);
  EXPECT_EQ(gp.diagnostics().posterior_jitter, 0.0);
}

}  // namespace
}  // namespace pamo::gp
