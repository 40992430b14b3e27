// Input-set helpers for the GP suites. A GpRegressor is built over a
// finite input set and fed, and queried at, indices into it; these map the
// raw rows a test thinks in onto that set.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "gp/gp_regressor.hpp"

namespace pamo::gp {

using Rows = std::vector<std::vector<double>>;

/// The rows of `parts`, in order, each kept once.
inline Rows grid_of(std::initializer_list<Rows> parts) {
  Rows grid;
  for (const Rows& part : parts) {
    for (const auto& row : part) {
      if (std::find(grid.begin(), grid.end(), row) == grid.end()) {
        grid.push_back(row);
      }
    }
  }
  return grid;
}

/// The a-major product grid a × b.
inline Rows product_grid(const std::vector<double>& a,
                         const std::vector<double>& b) {
  Rows grid;
  for (const double u : a) {
    for (const double v : b) grid.push_back({u, v});
  }
  return grid;
}

/// Index of `x` in the model's input set (a test failure when absent).
inline std::size_t index_of(const GpRegressor& gp,
                            const std::vector<double>& x) {
  const Rows& grid = gp.grid();
  const auto it = std::find(grid.begin(), grid.end(), x);
  EXPECT_NE(it, grid.end()) << "row is not in the model's input set";
  return static_cast<std::size_t>(it - grid.begin());
}

inline std::vector<std::size_t> indices_of(const GpRegressor& gp,
                                           const Rows& x) {
  std::vector<std::size_t> at;
  at.reserve(x.size());
  for (const auto& row : x) at.push_back(index_of(gp, row));
  return at;
}

/// Posterior variance of the latent function at `x` (the diagonal of the
/// joint posterior over the input set).
inline double posterior_var(const GpRegressor& gp,
                            const std::vector<double>& x) {
  const std::size_t g = index_of(gp, x);
  return gp.posterior().covariance(g, g);
}

}  // namespace pamo::gp
