// GpRegressor solves on the distinct inputs with per-input sufficient
// statistics. That is an exact reduction, so every posterior and the log
// marginal likelihood must match a GP factored over every row — computed
// here directly with la::Cholesky — to rounding, for unit and for
// robust- or drift-inflated per-row noise alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gp/gp_regressor.hpp"
#include "la/cholesky.hpp"
#include "la/matrix.hpp"
#include "obs/json.hpp"

namespace pamo::gp {
namespace {

using Rows = std::vector<std::vector<double>>;

constexpr double kLog2Pi = 1.8378770664093454835606594728112;

/// 60 observations of a noisy surface on 12 distinct 2-D inputs: every
/// input appears at least once, the rest are drawn with replacement.
struct RepeatedData {
  Rows distinct;
  Rows x;
  std::vector<double> y;
};

double surface(const std::vector<double>& x) {
  return std::sin(3.0 * x[0]) + 0.5 * std::cos(2.0 * x[1]) + 0.3 * x[0];
}

RepeatedData make_repeated(std::uint64_t seed) {
  constexpr std::size_t distinct = 12;
  constexpr std::size_t rows = 60;
  Rng rng(seed);
  RepeatedData d;
  for (std::size_t i = 0; i < distinct; ++i) {
    d.distinct.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  for (std::size_t j = 0; j < rows; ++j) {
    const auto& row =
        d.distinct[j < distinct ? j : rng.uniform_index(distinct)];
    d.x.push_back(row);
    d.y.push_back(surface(row) + 0.1 * rng.normal());
  }
  return d;
}

KernelParams params_2d() {
  KernelParams p;
  p.log_lengthscales = {std::log(0.35), std::log(0.5)};
  p.log_signal_var = std::log(1.3);
  p.log_noise_var = std::log(0.02);
  return p;
}

GpOptions fixed_options(KernelType kernel) {
  GpOptions o;
  o.kernel = kernel;
  o.fixed_params = params_2d();
  return o;
}

/// The full-row GP, in the regressor's own scaling: min-max inputs,
/// standardized targets, per-row noise σ²·λ_j.
struct FullRowGp {
  KernelType kernel = KernelType::kRbf;
  KernelParams params;
  std::vector<double> lo, hi;
  double y_mean = 0.0, y_std = 1.0;
  Rows xs;
  std::vector<double> ys;
  std::optional<la::Cholesky> chol;
  la::Vector alpha;

  std::vector<double> scale(const std::vector<double>& x) const {
    std::vector<double> s(x.size());
    for (std::size_t d = 0; d < x.size(); ++d) {
      s[d] = (x[d] - lo[d]) / (hi[d] - lo[d]);
    }
    return s;
  }
};

FullRowGp full_row_gp(KernelType kernel, const KernelParams& params,
                      const Rows& x, const std::vector<double>& y,
                      const std::vector<double>& noise_scale) {
  FullRowGp g;
  g.kernel = kernel;
  g.params = params;
  g.lo = x.front();
  g.hi = x.front();
  for (const auto& row : x) {
    for (std::size_t d = 0; d < row.size(); ++d) {
      g.lo[d] = std::min(g.lo[d], row[d]);
      g.hi[d] = std::max(g.hi[d], row[d]);
    }
  }
  g.y_mean = mean_of(y);
  g.y_std = stddev_of(y);
  for (std::size_t j = 0; j < x.size(); ++j) {
    g.xs.push_back(g.scale(x[j]));
    g.ys.push_back((y[j] - g.y_mean) / g.y_std);
  }
  la::Matrix k = kernel_matrix(kernel, params, g.xs);
  const double noise = std::exp(params.log_noise_var);
  for (std::size_t j = 0; j < x.size(); ++j) k(j, j) += noise * noise_scale[j];
  g.chol.emplace(k);
  g.alpha = g.chol->solve(g.ys);
  return g;
}

/// Full-row log marginal likelihood with unit noise weights (the MLE's).
double full_row_lml(const FullRowGp& g) {
  la::Matrix k = kernel_matrix(g.kernel, g.params, g.xs);
  k.add_diagonal(std::exp(g.params.log_noise_var));
  const la::Cholesky chol(k);
  const double quad = la::dot(g.ys, chol.solve(g.ys));
  return -0.5 * (quad + chol.log_det() +
                 static_cast<double>(g.xs.size()) * kLog2Pi);
}

/// The robust IRLS of GpOptions::robust_noise run on the full-row GP, where
/// row j's standardized residual is √(σ²λ_j)·α_j.
std::vector<double> full_row_irls(KernelType kernel, const KernelParams& params,
                                  const Rows& x, const std::vector<double>& y,
                                  const GpOptions& o) {
  std::vector<double> lambda(x.size(), 1.0);
  const double noise = std::exp(params.log_noise_var);
  for (std::size_t round = 0; round < o.robust_rounds; ++round) {
    const FullRowGp g = full_row_gp(kernel, params, x, y, lambda);
    bool changed = false;
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double z = std::fabs(std::sqrt(noise * lambda[j]) * g.alpha[j]);
      if (z <= o.robust_threshold) continue;
      const double ratio = z / o.robust_threshold;
      const double target =
          std::min(o.robust_inflation_cap, lambda[j] * ratio * ratio);
      if (target > lambda[j]) {
        lambda[j] = target;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return lambda;
}

Rows queries_for(const RepeatedData& d, std::uint64_t seed) {
  Rows q(d.distinct.begin(), d.distinct.begin() + 4);  // training inputs
  Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    q.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  return q;
}

std::vector<double> noise_scales_of(const GpRegressor& gp) {
  const obs::json::Value snap = gp.snapshot();
  std::vector<double> out;
  for (const auto& v : snap.at("noise_scale").items()) {
    out.push_back(v.as_double());
  }
  return out;
}

/// Posterior mean/variance of `gp` (joint and pointwise) against the
/// full-row reference over the same rows and noise scales.
void expect_matches_full_row(const GpRegressor& gp, const Rows& x,
                             const std::vector<double>& y, const Rows& q,
                             KernelType kernel) {
  const FullRowGp ref =
      full_row_gp(kernel, gp.params(), x, y, noise_scales_of(gp));
  ASSERT_EQ(ref.chol->jitter(), 0.0);  // pamo-lint: allow(float-eq)
  const Posterior post = gp.posterior(q);
  const KernelEvaluator k_eval(kernel, gp.params());
  for (std::size_t c = 0; c < q.size(); ++c) {
    const std::vector<double> qs = ref.scale(q[c]);
    la::Vector kstar(ref.xs.size());
    for (std::size_t j = 0; j < ref.xs.size(); ++j) {
      kstar[j] = k_eval(qs, ref.xs[j]);
    }
    const double mean = ref.y_mean + ref.y_std * la::dot(kstar, ref.alpha);
    const la::Vector v = ref.chol->solve_lower(kstar);
    const double var =
        (k_eval.signal_var() - la::dot(v, v)) * ref.y_std * ref.y_std;
    EXPECT_NEAR(post.mean[c], mean, 1e-9) << "query " << c;
    EXPECT_NEAR(post.covariance(c, c), var, 1e-9) << "query " << c;
    EXPECT_NEAR(gp.predict_mean(q[c]), mean, 1e-9) << "query " << c;
    EXPECT_NEAR(gp.predict_var(q[c]), std::max(0.0, var), 1e-9)
        << "query " << c;
  }
}

class DistinctRowExactness : public ::testing::TestWithParam<KernelType> {};

TEST_P(DistinctRowExactness, PosteriorAndLmlMatchTheFullRowGp) {
  const RepeatedData d = make_repeated(0xD15C0001ULL);
  GpRegressor gp(fixed_options(GetParam()));
  gp.fit(d.x, d.y);
  EXPECT_EQ(gp.num_points(), 60u);
  EXPECT_EQ(gp.num_distinct(), 12u);
  expect_matches_full_row(gp, d.x, d.y, queries_for(d, 0xD15C0002ULL),
                          GetParam());

  const FullRowGp ref = full_row_gp(GetParam(), params_2d(), d.x, d.y,
                                    std::vector<double>(d.x.size(), 1.0));
  // The MLE's likelihood surface, away from the fit's own parameters too.
  KernelParams other = params_2d();
  other.log_noise_var = std::log(0.3);
  other.log_lengthscales[0] = std::log(0.8);
  for (const KernelParams& p : {params_2d(), other}) {
    FullRowGp at_p = ref;
    at_p.params = p;
    const double expected = full_row_lml(at_p);
    EXPECT_NEAR(gp.log_marginal_likelihood(p), expected,
                1e-9 * std::fabs(expected));
  }
}

TEST_P(DistinctRowExactness, RobustOutlierScalesFoldIntoTheWeights) {
  RepeatedData d = make_repeated(0xD15C0003ULL);
  d.y[30] += 12.0;  // one gross outlier on a repeated input
  GpOptions options = fixed_options(GetParam());
  options.robust_noise = true;
  GpRegressor gp(options);
  gp.fit(d.x, d.y);
  ASSERT_GE(gp.diagnostics().outliers_downweighted, 1u);
  const auto scales = noise_scales_of(gp);
  EXPECT_GT(scales[30], 1.0);
  // The per-row residuals behind the reweighting are the full-row GP's.
  const auto expected =
      full_row_irls(GetParam(), params_2d(), d.x, d.y, options);
  ASSERT_EQ(scales.size(), expected.size());
  for (std::size_t j = 0; j < scales.size(); ++j) {
    EXPECT_NEAR(scales[j], expected[j], 1e-9 * expected[j]) << "row " << j;
  }
  expect_matches_full_row(gp, d.x, d.y, queries_for(d, 0xD15C0004ULL),
                          GetParam());
}

TEST_P(DistinctRowExactness, DriftInflatedBankStaysExact) {
  const RepeatedData d = make_repeated(0xD15C0005ULL);
  GpOptions options = fixed_options(GetParam());
  options.drift_cusum_h = 2.0;
  options.drift_forget_inflation = 9.0;
  GpRegressor gp(options);
  gp.fit(d.x, d.y);
  // The same inputs again, shifted: the detector fires and inflates every
  // pre-existing row's noise, so one input mixes λ = 9 and λ = 1 rows.
  Rows x_new(d.distinct.begin(), d.distinct.begin() + 6);
  std::vector<double> y_new;
  for (const auto& row : x_new) y_new.push_back(surface(row) + 2.5);
  gp.update(x_new, y_new);
  ASSERT_GE(gp.diagnostics().drift_fires, 1u);
  Rows x_all = d.x;
  x_all.insert(x_all.end(), x_new.begin(), x_new.end());
  std::vector<double> y_all = d.y;
  y_all.insert(y_all.end(), y_new.begin(), y_new.end());
  EXPECT_EQ(gp.num_distinct(), 12u);
  expect_matches_full_row(gp, x_all, y_all, queries_for(d, 0xD15C0006ULL),
                          GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, DistinctRowExactness,
                         ::testing::Values(KernelType::kRbf,
                                           KernelType::kMatern52));

}  // namespace
}  // namespace pamo::gp
