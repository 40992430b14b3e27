// GpRegressor keeps per-input sufficient statistics (cells) and solves on
// them. That is an exact reduction, so every posterior and the log
// marginal likelihood must match a GP factored over every row — computed
// here directly with la::Cholesky, on the input set's scaling — to
// rounding, for unit and for robust-inflated per-row noise alike, and
// however the rows were fed. The cells also bound the model: its snapshot
// does not grow with the rows.
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
#include "support/gp_grid.hpp"

namespace pamo::gp {
namespace {

constexpr double kLog2Pi = 1.8378770664093454835606594728112;

/// Observations of a noisy surface on distinct points of an input set:
/// every one appears at least once, the rest are drawn with replacement.
struct RepeatedData {
  Rows grid;
  Rows distinct;
  Rows x;
  std::vector<double> y;
};

double surface(const std::vector<double>& x) {
  return std::sin(3.0 * x[0]) + 0.5 * std::cos(2.0 * x[1]) + 0.3 * x[0];
}

/// 60 observations on 12 distinct points of the 9 × 9 grid over [0, 1]².
RepeatedData make_repeated(std::uint64_t seed) {
  constexpr std::size_t distinct = 12;
  constexpr std::size_t rows = 60;
  Rng rng(seed);
  RepeatedData d;
  std::vector<double> axis;
  for (int i = 0; i <= 8; ++i) axis.push_back(0.125 * i);
  d.grid = product_grid(axis, axis);
  std::vector<std::size_t> order(d.grid.size());
  for (std::size_t g = 0; g < order.size(); ++g) order[g] = g;
  rng.shuffle(order);
  for (std::size_t i = 0; i < distinct; ++i) {
    d.distinct.push_back(d.grid[order[i]]);
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

/// The full-row GP, in the regressor's own scaling: inputs min-max scaled
/// by the input set, standardized targets, per-row noise σ²·λ_j.
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
                      const Rows& grid, const Rows& x,
                      const std::vector<double>& y,
                      const std::vector<double>& noise_scale) {
  FullRowGp g;
  g.kernel = kernel;
  g.params = params;
  g.lo = grid.front();
  g.hi = grid.front();
  for (const auto& row : grid) {
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
                                  const Rows& grid, const Rows& x,
                                  const std::vector<double>& y,
                                  const GpOptions& o) {
  std::vector<double> lambda(x.size(), 1.0);
  const double noise = std::exp(params.log_noise_var);
  for (std::size_t round = 0; round < kRobustRounds; ++round) {
    const FullRowGp g = full_row_gp(kernel, params, grid, x, y, lambda);
    bool changed = false;
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double z = std::fabs(std::sqrt(noise * lambda[j]) * g.alpha[j]);
      if (z <= o.robust_threshold) continue;
      const double ratio = z / o.robust_threshold;
      const double target =
          std::min(kRobustInflationCap, lambda[j] * ratio * ratio);
      if (target > lambda[j]) {
        lambda[j] = target;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return lambda;
}

/// The weight W_i = Σ 1/λ_j of each of `gp`'s cells, in cell order.
std::vector<double> cell_weights_of(const GpRegressor& gp) {
  const obs::json::Value snap = gp.snapshot();
  std::vector<double> out;
  for (const auto& v : snap.at("cells").at("weight").items()) {
    out.push_back(v.as_double());
  }
  return out;
}

/// Σ 1/λ_j per distinct input of `x`, in first-occurrence order.
std::vector<double> weights_by_input(const Rows& x,
                                     const std::vector<double>& lambda) {
  Rows seen;
  std::vector<double> out;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const auto it = std::find(seen.begin(), seen.end(), x[j]);
    if (it == seen.end()) {
      seen.push_back(x[j]);
      out.push_back(1.0 / lambda[j]);
    } else {
      out[static_cast<std::size_t>(it - seen.begin())] += 1.0 / lambda[j];
    }
  }
  return out;
}

/// Posterior mean/variance of `gp` (joint and pointwise) over its whole
/// input set against the full-row reference over the same rows with noise
/// scales `lambda`.
void expect_matches_full_row(const GpRegressor& gp, const Rows& x,
                             const std::vector<double>& y, KernelType kernel,
                             const std::vector<double>& lambda) {
  const Rows& q = gp.grid();
  const FullRowGp ref = full_row_gp(kernel, gp.params(), q, x, y, lambda);
  ASSERT_EQ(ref.chol->jitter(), 0.0);  // pamo-analyze: allow(float-eq)
  const Posterior post = gp.posterior();
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
    EXPECT_NEAR(gp.predict_mean(c), mean, 1e-9) << "query " << c;
  }
}

class DistinctRowExactness : public ::testing::TestWithParam<KernelType> {};

TEST_P(DistinctRowExactness, PosteriorAndLmlMatchTheFullRowGp) {
  const RepeatedData d = make_repeated(0xD15C0001ULL);
  GpRegressor gp(d.grid, fixed_options(GetParam()));
  gp.fit(indices_of(gp, d.x), d.y);
  EXPECT_EQ(gp.num_points(), 60u);
  EXPECT_EQ(gp.num_distinct(), 12u);
  const std::vector<double> unit(d.x.size(), 1.0);
  expect_matches_full_row(gp, d.x, d.y, GetParam(), unit);

  const FullRowGp ref = full_row_gp(GetParam(), params_2d(), d.grid, d.x, d.y,
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
  GpRegressor gp(d.grid, options);
  gp.fit(indices_of(gp, d.x), d.y);
  ASSERT_GE(gp.diagnostics().outliers_downweighted, 1u);
  // The per-row residuals behind the reweighting are the full-row GP's,
  // and each row's scale folds into its cell's weight.
  const auto lambda =
      full_row_irls(GetParam(), params_2d(), d.grid, d.x, d.y, options);
  EXPECT_GT(lambda[30], 1.0);
  const auto weights = cell_weights_of(gp);
  const auto expected = weights_by_input(d.x, lambda);
  ASSERT_EQ(weights.size(), expected.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(weights[i], expected[i], 1e-9 * expected[i]) << "cell " << i;
  }
  expect_matches_full_row(gp, d.x, d.y, GetParam(), lambda);
}

/// `rows` observations over the 6 × 5 knob grid (raw resolution and fps
/// values): every cell appears once, the rest uniformly with replacement.
RepeatedData make_grid_rows(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  RepeatedData d;
  d.grid = product_grid({360.0, 480.0, 600.0, 720.0, 840.0, 960.0},
                        {1.0, 2.0, 5.0, 10.0, 15.0});
  d.distinct = d.grid;
  for (std::size_t j = 0; j < rows; ++j) {
    const auto& row = d.distinct[j < d.distinct.size()
                                     ? j
                                     : rng.uniform_index(d.distinct.size())];
    d.x.push_back(row);
    d.y.push_back(surface({row[0] / 960.0, row[1] / 15.0}) +
                  0.1 * rng.normal());
  }
  return d;
}

/// Feed `d` to `gp`: fit on the first `first` rows, then update() in
/// batches of `batch` rows.
void feed(GpRegressor& gp, const RepeatedData& d, std::size_t first,
          std::size_t batch) {
  const std::vector<std::size_t> at = indices_of(gp, d.x);
  gp.fit(std::vector<std::size_t>(
             at.begin(), at.begin() + static_cast<std::ptrdiff_t>(first)),
         std::vector<double>(d.y.begin(),
                             d.y.begin() + static_cast<std::ptrdiff_t>(first)));
  for (std::size_t j = first; j < d.x.size(); j += batch) {
    const std::size_t end = std::min(d.x.size(), j + batch);
    const auto b = static_cast<std::ptrdiff_t>(j);
    const auto e = static_cast<std::ptrdiff_t>(end);
    gp.update(std::vector<std::size_t>(at.begin() + b, at.begin() + e),
              std::vector<double>(d.y.begin() + b, d.y.begin() + e));
  }
}

TEST_P(DistinctRowExactness, StreamedRowsMatchTheFullRowGp) {
  // The cells' streaming moments over updates of the grid stay exact to
  // rounding against the GP factored over all 600 rows.
  const RepeatedData d = make_grid_rows(600, 0xD15C0005ULL);
  GpRegressor gp(d.grid, fixed_options(GetParam()));
  feed(gp, d, /*first=*/60, /*batch=*/55);
  ASSERT_EQ(gp.num_points(), 600u);
  ASSERT_EQ(gp.num_distinct(), 30u);
  expect_matches_full_row(gp, d.x, d.y, GetParam(),
                          std::vector<double>(d.x.size(), 1.0));
  const FullRowGp ref = full_row_gp(GetParam(), params_2d(), d.grid, d.x, d.y,
                                    std::vector<double>(d.x.size(), 1.0));
  const double expected = full_row_lml(ref);
  EXPECT_NEAR(gp.log_marginal_likelihood(params_2d()), expected,
              1e-9 * std::fabs(expected));
}

/// `json` with every number replaced by one character: its length is the
/// snapshot's shape, free of how many digits each value prints with.
std::size_t shape_length(const std::string& json) {
  std::size_t length = 0;
  bool in_number = false;
  for (const char c : json) {
    const bool numeric = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                         c == '.' || c == 'e' || c == 'E';
    if (!numeric || !in_number) ++length;
    in_number = numeric;
  }
  return length;
}

TEST_P(DistinctRowExactness, SnapshotIsBoundedByTheCells) {
  // 30,000 rows and 300 rows over the same 30 cells leave a model, and a
  // checkpoint, of one size.
  const RepeatedData few = make_grid_rows(300, 0xD15C0006ULL);
  const RepeatedData many = make_grid_rows(30000, 0xD15C0007ULL);
  GpRegressor small(few.grid, fixed_options(GetParam()));
  GpRegressor large(many.grid, fixed_options(GetParam()));
  feed(small, few, /*first=*/300, /*batch=*/1);
  feed(large, many, /*first=*/300, /*batch=*/300);
  ASSERT_EQ(large.num_points(), 30000u);
  ASSERT_EQ(large.num_distinct(), small.num_distinct());
  EXPECT_EQ(shape_length(large.snapshot().dump()),
            shape_length(small.snapshot().dump()));
}

INSTANTIATE_TEST_SUITE_P(Kernels, DistinctRowExactness,
                         ::testing::Values(KernelType::kRbf,
                                           KernelType::kMatern52));

}  // namespace
}  // namespace pamo::gp
