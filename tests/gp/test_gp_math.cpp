// Closed-form checks of GP posterior math against hand-derived formulas
// (fixed hyperparameters, no standardization surprises).
#include <gtest/gtest.h>

#include <cmath>

#include "gp/gp_regressor.hpp"
#include "support/gp_grid.hpp"

namespace pamo::gp {
namespace {

/// A GP with fixed unit-signal RBF kernel and noise σ², two symmetric
/// training targets so standardization maps them to ±1, over the input set
/// {0, 0.5, 1, 2}.
GpRegressor make_two_point_gp(double lengthscale_scaled, double noise_var) {
  GpOptions options;
  options.kernel = KernelType::kRbf;  // the closed forms below assume RBF
  KernelParams params;
  // Inputs get min-max scaled to [0, 1]; pass the lengthscale valid for
  // the scaled axis.
  params.log_lengthscales = {std::log(lengthscale_scaled)};
  params.log_signal_var = 0.0;
  params.log_noise_var = std::log(noise_var);
  options.fixed_params = params;
  // The input set spans [0, 2], so {0, 0.5, 1, 2} scale to
  // {0, 0.25, 0.5, 1}.
  GpRegressor gp({{0.0}, {0.5}, {1.0}, {2.0}}, options);
  // Targets ±1 standardize to ±1/std = ±1/sqrt(2) (sample std of {-1, 1}
  // is sqrt(2)).
  gp.fit(indices_of(gp, {{0.0}, {2.0}}), {-1.0, 1.0});
  return gp;
}

TEST(GpMath, TwoPointPosteriorMeanMatchesClosedForm) {
  const double ls = 1.0;
  const double noise = 0.1;
  GpRegressor gp = make_two_point_gp(ls, noise);

  // Scaled-space quantities: x₁=0, x₂=1, k12 = exp(-0.5).
  const double k12 = std::exp(-0.5);
  const double d = 1.0 + noise;
  const double det = d * d - k12 * k12;
  const double ystd = 1.0 / std::sqrt(2.0);
  // α = (K+σ²I)⁻¹ y for y = (−a, a): α = (−a(d+k12), a(d+k12)) / det.
  const double a1 = -ystd * (d + k12) / det;
  const double a2 = ystd * (d + k12) / det;

  // Midpoint (raw 1 → scaled 0.5): k* is equal to both points, so the
  // standardized mean k*·(α₁+α₂) vanishes by symmetry.
  EXPECT_NEAR(gp.predict_mean(index_of(gp, {1.0})), 0.0, 1e-12);

  // Off-centre point (raw 0.5 → scaled 0.25): distinct k* components.
  const double k1 = std::exp(-0.5 * 0.25 * 0.25);
  const double k2 = std::exp(-0.5 * 0.75 * 0.75);
  const double mean_std = k1 * a1 + k2 * a2;
  EXPECT_NEAR(gp.predict_mean(index_of(gp, {0.5})), std::sqrt(2.0) * mean_std,
              1e-12);
}

TEST(GpMath, TwoPointPosteriorVarianceMatchesClosedForm) {
  const double noise = 0.1;
  GpRegressor gp = make_two_point_gp(1.0, noise);
  const double k12 = std::exp(-0.5);
  const double d = 1.0 + noise;
  const double kstar = std::exp(-0.125);
  // var_std = 1 - k*ᵀ (K+σ²I)⁻¹ k*; with equal k* components:
  // k*ᵀ A⁻¹ k* = 2 k*² (d - k12) / det = 2k*²/(d + k12).
  const double explained = 2.0 * kstar * kstar / (d + k12);
  const double var_std = 1.0 - explained;
  const double y_var = 2.0;  // sample variance of {-1, 1}
  EXPECT_NEAR(posterior_var(gp, {1.0}), var_std * y_var, 1e-12);
}

TEST(GpMath, PriorRecoveredFarFromData) {
  GpRegressor gp = make_two_point_gp(0.05, 1e-6);  // tiny lengthscale
  // Far from both points (in scaled space) the posterior reverts to the
  // prior: mean → y_mean (0), variance → signal · y_var (2).
  EXPECT_NEAR(gp.predict_mean(index_of(gp, {1.0})), 0.0, 1e-6);
  EXPECT_NEAR(posterior_var(gp, {1.0}), 2.0, 1e-6);
}

TEST(GpMath, NoiselessInterpolationIsExact) {
  GpOptions options;
  KernelParams params;
  params.log_lengthscales = {std::log(0.5)};
  params.log_signal_var = 0.0;
  params.log_noise_var = std::log(1e-10);
  options.fixed_params = params;
  GpRegressor gp({{0.0}, {1.0}, {2.0}}, options);
  gp.fit({0, 1, 2}, {3.0, -1.0, 2.0});
  EXPECT_NEAR(gp.predict_mean(0), 3.0, 1e-4);
  EXPECT_NEAR(gp.predict_mean(1), -1.0, 1e-4);
  EXPECT_NEAR(gp.predict_mean(2), 2.0, 1e-4);
  EXPECT_LT(posterior_var(gp, {1.0}), 1e-3);
}

TEST(GpMath, LogMarginalLikelihoodMatchesDirectFormula) {
  GpOptions options;
  options.kernel = KernelType::kRbf;
  KernelParams params;
  params.log_lengthscales = {0.0};
  params.log_signal_var = 0.0;
  params.log_noise_var = std::log(0.25);
  options.fixed_params = params;
  GpRegressor gp({{0.0}, {2.0}}, options);
  gp.fit({0, 1}, {-1.0, 1.0});

  const double k12 = std::exp(-0.5);  // scaled distance 1
  const double d = 1.25;
  const double det = d * d - k12 * k12;
  const double ystd = 1.0 / std::sqrt(2.0);
  // yᵀ A⁻¹ y for y = (-ystd, ystd): 2 ystd² (d + k12)/det = 1/(d - k12)...
  const double quad = 2.0 * ystd * ystd * (d + k12) / det;
  const double expected =
      -0.5 * (quad + std::log(det) + 2.0 * std::log(2.0 * M_PI));
  EXPECT_NEAR(gp.log_marginal_likelihood(params), expected, 1e-10);
}

}  // namespace
}  // namespace pamo::gp
