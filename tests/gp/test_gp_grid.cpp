// The grid model is an exact GP restricted to its input set. Its posterior
// must therefore equal, bit for bit, the posterior a general-input GP
// forms over the same cells: a min-max box from the cell inputs, the
// training Gram from kernel_matrix, the cross-covariances from
// kernel_cross, and la::Cholesky — when the cells span the grid's box, so
// both scale the inputs alike. The check runs after the fit, after
// updates that add and that repeat cells, and after a robust update that
// flags an outlier. Indices off the input set are rejected without
// touching the model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "la/cholesky.hpp"
#include "la/matrix.hpp"
#include "obs/json.hpp"
#include "support/gp_grid.hpp"

namespace pamo::gp {
namespace {

/// The 6 × 5 (resolution, fps) knob grid.
Rows knob_grid() {
  return product_grid({360.0, 480.0, 600.0, 720.0, 840.0, 960.0},
                      {1.0, 2.0, 5.0, 10.0, 15.0});
}

double surface(const std::vector<double>& x) {
  return std::sin(x[0] / 300.0) + 0.4 * std::log(x[1]);
}

std::vector<double> doubles_of(const obs::json::Value& v) {
  std::vector<double> out;
  for (const auto& item : v.items()) out.push_back(item.as_double());
  return out;
}

/// The posterior a general-input GP forms over `gp`'s cells (read from its
/// snapshot) at the points of its input set.
Posterior general_posterior(const GpRegressor& gp, KernelType kernel) {
  const obs::json::Value cells = gp.snapshot().at("cells");
  Rows x;
  for (const auto& row : cells.at("x").items()) x.push_back(doubles_of(row));
  const std::vector<double> count = doubles_of(cells.at("count"));
  const std::vector<double> mean = doubles_of(cells.at("mean"));
  const std::vector<double> m2 = doubles_of(cells.at("m2"));
  const std::vector<double> weight = doubles_of(cells.at("weight"));
  const std::vector<double> wmean = doubles_of(cells.at("wmean"));
  const std::size_t n = x.size();
  const std::size_t dim = x.front().size();

  // A min-max box from the cells, applied to the cells and the queries.
  std::vector<double> lo(dim, std::numeric_limits<double>::max());
  std::vector<double> hi(dim, std::numeric_limits<double>::lowest());
  for (const auto& row : x) {
    for (std::size_t d = 0; d < dim; ++d) {
      lo[d] = std::min(lo[d], row[d]);
      hi[d] = std::max(hi[d], row[d]);
    }
  }
  const auto scale = [&](const Rows& rows) {
    Rows out;
    for (const auto& row : rows) {
      std::vector<double> s(dim);
      for (std::size_t d = 0; d < dim; ++d) {
        s[d] = (row[d] - lo[d]) / (hi[d] - lo[d]);
      }
      out.push_back(std::move(s));
    }
    return out;
  };
  const Rows xs = scale(x);
  const Rows qs = scale(gp.grid());

  // Standardization: the cells' moments merged in cell order.
  double rows = 0.0;
  double y_mean = 0.0;
  double y_m2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double total = rows + count[i];
    const double delta = mean[i] - y_mean;
    y_mean += delta * count[i] / total;
    y_m2 += m2[i] + delta * delta * rows * count[i] / total;
    rows = total;
  }
  const double y_std = std::sqrt(y_m2 / (rows - 1.0));
  la::Vector ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = (wmean[i] - y_mean) / y_std;

  const KernelParams& params = gp.params();
  la::Matrix k = kernel_matrix(kernel, params, xs);
  const double noise = std::exp(params.log_noise_var);
  for (std::size_t i = 0; i < n; ++i) k(i, i) += noise / weight[i];
  const la::Cholesky chol(k, 1e-4);
  EXPECT_EQ(chol.jitter(), 0.0);  // pamo-analyze: allow(float-eq)
  const la::Vector alpha = chol.solve(ys);
  const la::Matrix k_cross = kernel_cross(kernel, params, qs, xs);
  const la::Matrix k_test = kernel_matrix(kernel, params, qs);
  const la::Matrix v = chol.solve_lower(k_cross.transposed());

  const std::size_t m = qs.size();
  Posterior post;
  post.mean.resize(m);
  post.covariance = la::Matrix(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += k_cross(i, j) * alpha[j];
    post.mean[i] = y_mean + y_std * sum;
    for (std::size_t j = 0; j < m; ++j) {
      double vtv = 0.0;
      for (std::size_t r = 0; r < n; ++r) vtv += v(r, i) * v(r, j);
      post.covariance(i, j) = (k_test(i, j) - vtv) * (y_std * y_std);
    }
  }
  return post;
}

void expect_matches_general(const GpRegressor& gp, KernelType kernel) {
  const Posterior want = general_posterior(gp, kernel);
  const Posterior got = gp.posterior();
  ASSERT_EQ(got.mean.size(), want.mean.size());
  for (std::size_t i = 0; i < want.mean.size(); ++i) {
    EXPECT_EQ(got.mean[i], want.mean[i]) << i;  // pamo-analyze: allow(float-eq)
    EXPECT_EQ(gp.predict_mean(i), want.mean[i]) << i;  // pamo-analyze: allow(float-eq)
    for (std::size_t j = 0; j < want.mean.size(); ++j) {
      // pamo-analyze: allow(float-eq)
      EXPECT_EQ(got.covariance(i, j), want.covariance(i, j)) << i << ", " << j;
    }
  }
}

class GridPosterior : public ::testing::TestWithParam<KernelType> {};

TEST_P(GridPosterior, MatchesAGeneralInputGpOverTheSameCells) {
  GpOptions options;
  options.kernel = GetParam();
  options.mle_restarts = 1;
  options.mle_max_evals = 60;
  options.robust_noise = true;
  GpRegressor gp(knob_grid(), options);
  const Rows& grid = gp.grid();
  Rng rng(0x6a1d0001ULL);
  const auto noisy = [&](const std::vector<std::size_t>& at) {
    std::vector<double> y;
    for (const std::size_t g : at) {
      y.push_back(surface(grid[g]) + 0.05 * rng.normal());
    }
    return y;
  };

  // The fit: 16 cells, the four corners among them, so the cells span the
  // grid's box.
  std::vector<std::size_t> first = {0, 4, 25, 29};
  for (const std::size_t g : {7, 9, 12, 13, 16, 18, 20, 22, 2, 11, 27, 15}) {
    first.push_back(g);
  }
  first.push_back(7);
  first.push_back(12);
  gp.fit(first, noisy(first));
  ASSERT_EQ(gp.num_distinct(), 16u);
  {
    SCOPED_TRACE("fit");
    expect_matches_general(gp, GetParam());
  }

  const std::vector<std::size_t> fresh = {1, 3, 5, 8, 14, 21, 28, 9};
  gp.update(fresh, noisy(fresh));
  ASSERT_EQ(gp.num_distinct(), 23u);
  {
    SCOPED_TRACE("update that adds cells");
    expect_matches_general(gp, GetParam());
  }

  const std::vector<std::size_t> repeats = {0, 13, 13, 21, 29};
  gp.update(repeats, noisy(repeats));
  ASSERT_EQ(gp.num_distinct(), 23u);
  {
    SCOPED_TRACE("update that repeats cells");
    expect_matches_general(gp, GetParam());
  }

  const std::size_t outliers = gp.diagnostics().outliers_downweighted;
  const std::vector<std::size_t> spiked = {16, 16, 16, 6};
  std::vector<double> y = noisy(spiked);
  y[1] += 30.0;
  gp.update(spiked, y);
  ASSERT_GT(gp.diagnostics().outliers_downweighted, outliers);
  {
    SCOPED_TRACE("robust update that flags an outlier");
    expect_matches_general(gp, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, GridPosterior,
                         ::testing::Values(KernelType::kRbf,
                                           KernelType::kMatern52));

TEST(GridInputs, OffGridIndexThrowsAndLeavesTheModelUnchanged) {
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  options.reject_nonfinite = true;  // a dropped row would show in the tally
  GpRegressor gp(knob_grid(), options);
  const std::size_t off = gp.grid().size();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  EXPECT_THROW(gp.fit({0, 29, off}, {1.0, 2.0, nan}), pamo::Error);
  EXPECT_FALSE(gp.is_fit());
  EXPECT_EQ(gp.diagnostics().rows_rejected, 0u);

  gp.fit({0, 29, 4, 25, 12}, {1.0, 2.0, 0.5, 1.5, 1.2});
  const std::string before = gp.snapshot().dump();
  const Posterior post = gp.posterior();
  EXPECT_THROW(gp.update({3, off, 7}, {1.0, 2.0, nan}), pamo::Error);
  EXPECT_THROW(gp.fit({3, off + 5}, {1.0, 2.0}), pamo::Error);
  EXPECT_THROW(static_cast<void>(gp.predict_mean(off)), pamo::Error);
  EXPECT_EQ(gp.snapshot().dump(), before);
  const Posterior after = gp.posterior();
  for (std::size_t i = 0; i < post.mean.size(); ++i) {
    EXPECT_EQ(after.mean[i], post.mean[i]);  // pamo-analyze: allow(float-eq)
  }
}

}  // namespace
}  // namespace pamo::gp
