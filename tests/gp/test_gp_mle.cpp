#include "gp/mle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "gp/gp_regressor.hpp"
#include "support/gp_grid.hpp"

namespace pamo::gp {
namespace {

// ---- Likelihood ------------------------------------------------------------

/// Twelve 2-D inputs on a 4 × 3 layout. With `repeats`, the inputs sit on
/// the grid and each is observed 1–3 times (R = 12 repeated rows); without,
/// every row is a distinct, slightly sheared input.
void likelihood_data(bool repeats, std::vector<std::vector<double>>& x,
                     std::vector<double>& y) {
  x.clear();
  y.clear();
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 3; ++b) {
      const int copies = repeats ? 1 + (a + 2 * b) % 3 : 1;
      for (int c = 0; c < copies; ++c) {
        const double u = repeats ? 0.25 * a : 0.25 * a + 0.07 * b;
        const double v = repeats ? 0.5 * b : 0.5 * b + 0.03 * a;
        x.push_back({u, v});
        y.push_back(std::sin(3.0 * u) + std::cos(2.0 * v) +
                    0.05 * ((a * 7 + b * 3 + c * 5) % 4));
      }
    }
  }
}

/// The distinct inputs and unit-weight moments of (x, y), targets taken as
/// given (the regressor standardizes first; the likelihood does not care).
struct Grouped {
  std::vector<std::vector<double>> x;
  mle::GroupMoments moments;
};

Grouped group(const std::vector<std::vector<double>>& x,
              const std::vector<double>& y) {
  Grouped g;
  std::vector<std::size_t> of(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    std::size_t i = 0;
    while (i < g.x.size() && g.x[i] != x[j]) ++i;
    if (i == g.x.size()) g.x.push_back(x[j]);
    of[j] = i;
  }
  mle::GroupMoments& m = g.moments;
  m.count.assign(g.x.size(), 0.0);
  m.mean.assign(g.x.size(), 0.0);
  m.rows = x.size();
  for (std::size_t j = 0; j < x.size(); ++j) {
    m.count[of[j]] += 1.0;
    m.mean[of[j]] += y[j];
  }
  for (std::size_t i = 0; i < g.x.size(); ++i) {
    m.mean[i] /= m.count[i];
    m.log_count_sum += std::log(m.count[i]);
  }
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double r = y[j] - m.mean[of[j]];
    m.within_ss += r * r;
  }
  return g;
}

KernelParams params(double ls0, double ls1, double signal_var,
                    double noise_var) {
  KernelParams p;
  p.log_lengthscales = {std::log(ls0), std::log(ls1)};
  p.log_signal_var = std::log(signal_var);
  p.log_noise_var = std::log(noise_var);
  return p;
}

// The likelihood of the two data sets (every row, standardized and
// min-max scaled as the regressor does) at three hyperparameter sets,
// recorded with `%.17g` from the likelihood the Nelder–Mead fit evaluated.
// The analytic-gradient evaluation must reproduce them bit for bit on the
// row-order moments they were recorded from. The regressor forms those
// moments by streaming rows into its cells, so its
// log_marginal_likelihood() matches them to rounding.
TEST(GpMleLikelihood, ValueIsBitIdenticalToTheRecordedLikelihood) {
  const KernelParams sets[3] = {
      {{std::log(0.3), std::log(0.3)}, 0.0, std::log(1e-2)},
      {{std::log(1.2), std::log(0.1)}, 1.5, std::log(1e-6)},
      {{std::log(10.0), std::log(0.03)}, -2.0, -0.5}};
  // [repeats][kernel: RBF, Matérn-5/2][set]
  const double recorded[2][2][3] = {
      {{-11.479965309373597, -11.545847651279137, -15.605991992659689},
       {-12.817712866894574, -13.028137493603838, -15.705694527151675}},
      {{-4.8572975049509504, -53932.495343423463, -27.735014950528988},
       {-5.7482655726021994, -53928.844147266675, -27.733031528365853}}};
  for (int rep = 0; rep < 2; ++rep) {
    for (int k = 0; k < 2; ++k) {
      std::vector<std::vector<double>> x;
      std::vector<double> y;
      likelihood_data(rep == 1, x, y);
      GpOptions options;
      options.kernel = k == 0 ? KernelType::kRbf : KernelType::kMatern52;
      options.fixed_params = sets[0];
      // The input set is the observed inputs, so its box is theirs.
      GpRegressor gp(grid_of({x}), options);
      gp.fit(indices_of(gp, x), y);
      const double y_mean = mean_of(y);
      const double y_std = stddev_of(y);
      std::vector<double> ys;
      for (const double v : y) ys.push_back((v - y_mean) / y_std);
      std::vector<double> lo = x.front();
      std::vector<double> hi = x.front();
      for (const auto& row : x) {
        for (std::size_t d = 0; d < 2; ++d) {
          lo[d] = std::min(lo[d], row[d]);
          hi[d] = std::max(hi[d], row[d]);
        }
      }
      std::vector<std::vector<double>> xs;
      for (const auto& row : x) {
        xs.push_back({(row[0] - lo[0]) / (hi[0] - lo[0]),
                      (row[1] - lo[1]) / (hi[1] - lo[1])});
      }
      const Grouped g = group(xs, ys);
      mle::NegLogLikelihood neg_lml(options.kernel, g.x, g.moments);
      for (int s = 0; s < 3; ++s) {
        const double expected = recorded[rep][k][s];
        EXPECT_EQ(-neg_lml(sets[s].pack(), nullptr), expected)
            << "repeats " << rep << ", kernel " << k << ", set " << s;
        EXPECT_NEAR(gp.log_marginal_likelihood(sets[s]), expected,
                    1e-12 * std::fabs(expected))
            << "repeats " << rep << ", kernel " << k << ", set " << s;
      }
    }
  }
}

TEST(GpMleLikelihood, UnfactorizableSystemIsInfinite) {
  // A non-finite hyperparameter leaves no jitter that factorizes K: the
  // evaluation reports +∞, which the minimizer backtracks from.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  likelihood_data(false, x, y);
  const Grouped g = group(x, y);
  mle::NegLogLikelihood neg_lml(KernelType::kMatern52, g.x, g.moments);
  std::vector<double> grad(4);
  EXPECT_TRUE(std::isinf(neg_lml({0.0, 0.0, std::nan(""), -4.0}, &grad)));
}

/// The analytic gradient of −LML against central differences at `theta`.
void expect_gradient_matches(KernelType kernel, bool repeats,
                             const KernelParams& theta_params) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  likelihood_data(repeats, x, y);
  const Grouped g = group(x, y);
  ASSERT_EQ(g.moments.rows - g.x.size(), repeats ? 12u : 0u);
  mle::NegLogLikelihood neg_lml(kernel, g.x, g.moments);

  const std::vector<double> theta = theta_params.pack();
  std::vector<double> grad(theta.size());
  const double value = neg_lml(theta, &grad);
  ASSERT_TRUE(std::isfinite(value));
  EXPECT_EQ(value, neg_lml(theta, nullptr)) << "the gradient moves the value";
  constexpr double kStep = 1e-5;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    std::vector<double> up = theta;
    std::vector<double> down = theta;
    up[i] += kStep;
    down[i] -= kStep;
    const double fd =
        (neg_lml(up, nullptr) - neg_lml(down, nullptr)) / (2.0 * kStep);
    EXPECT_NEAR(grad[i], fd, 1e-5 * std::max(1.0, std::fabs(fd)))
        << "coordinate " << i;
  }
}

TEST(GpMleGradient, RbfDistinctInputs) {
  expect_gradient_matches(KernelType::kRbf, false, params(0.3, 0.4, 1.0, 1e-2));
}

TEST(GpMleGradient, MaternDistinctInputs) {
  expect_gradient_matches(KernelType::kMatern52, false,
                          params(0.3, 0.4, 1.0, 1e-2));
}

TEST(GpMleGradient, RbfRepeatedRows) {
  expect_gradient_matches(KernelType::kRbf, true, params(0.5, 0.2, 2.0, 5e-2));
}

TEST(GpMleGradient, MaternRepeatedRows) {
  expect_gradient_matches(KernelType::kMatern52, true,
                          params(0.5, 0.2, 2.0, 5e-2));
}

// The MLE box's noise floor (1e-6) with repeated rows: the within-group
// term dominates the noise entry.
TEST(GpMleGradient, RbfNearTheNoiseFloor) {
  expect_gradient_matches(KernelType::kRbf, true, params(0.3, 0.3, 1.0, 1.1e-6));
}

TEST(GpMleGradient, MaternNearTheNoiseFloor) {
  expect_gradient_matches(KernelType::kMatern52, true,
                          params(0.3, 0.3, 1.0, 1.1e-6));
}

// Lengthscales at the MLE box's ends (0.03 and 10).
TEST(GpMleGradient, RbfNearTheLengthscaleBounds) {
  expect_gradient_matches(KernelType::kRbf, false,
                          params(0.031, 9.9, 0.5, 1e-3));
}

TEST(GpMleGradient, MaternNearTheLengthscaleBounds) {
  expect_gradient_matches(KernelType::kMatern52, true,
                          params(9.9, 0.031, 0.5, 1e-3));
}

// ---- Minimizer -------------------------------------------------------------

mle::Box cube(std::size_t d, double lo = -5.0, double hi = 5.0) {
  mle::Box box;
  box.lo.assign(d, lo);
  box.hi.assign(d, hi);
  return box;
}

double sphere(const std::vector<double>& x, std::vector<double>& g) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum += x[i] * x[i];
    g[i] = 2.0 * x[i];
  }
  return sum;
}

double rosenbrock(const std::vector<double>& x, std::vector<double>& g) {
  const double a = x[1] - x[0] * x[0];
  const double b = 1.0 - x[0];
  g[0] = -400.0 * a * x[0] - 2.0 * b;
  g[1] = 200.0 * a;
  return 100.0 * a * a + b * b;
}

TEST(GpMleMinimizer, MinimizesSphere) {
  const mle::MinimizeResult r =
      mle::minimize_box(sphere, cube(3), {2.0, -3.0, 1.0}, 200);
  EXPECT_LT(r.value, 1e-8);
  for (double x : r.x) EXPECT_NEAR(x, 0.0, 1e-3);
}

TEST(GpMleMinimizer, QuadraticWithActiveBounds) {
  // Unconstrained optimum (−3, 1); the box [0, 5]² pins the first
  // coordinate at its lower bound and leaves the second free.
  auto shifted = [](const std::vector<double>& x, std::vector<double>& g) {
    g[0] = 2.0 * (x[0] + 3.0);
    g[1] = 2.0 * (x[1] - 1.0);
    return (x[0] + 3.0) * (x[0] + 3.0) + (x[1] - 1.0) * (x[1] - 1.0);
  };
  const mle::MinimizeResult r =
      mle::minimize_box(shifted, cube(2, 0.0, 5.0), {2.0, 4.0}, 200);
  EXPECT_EQ(r.x[0], 0.0);  // projected exactly onto the bound
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
  EXPECT_NEAR(r.value, 9.0, 1e-10);
}

TEST(GpMleMinimizer, MinimizesRosenbrockInABox) {
  const mle::MinimizeResult free_optimum =
      mle::minimize_box(rosenbrock, cube(2), {-1.0, 2.0}, 500);
  EXPECT_LT(free_optimum.value, 1e-8);
  EXPECT_NEAR(free_optimum.x[0], 1.0, 1e-3);
  EXPECT_NEAR(free_optimum.x[1], 1.0, 1e-3);
  // x₀ ≤ 0.5 cuts the valley: the optimum is (0.5, 0.25) with value 0.25.
  mle::Box box = cube(2, -2.0, 2.0);
  box.hi[0] = 0.5;
  const mle::MinimizeResult boxed =
      mle::minimize_box(rosenbrock, box, {-1.0, 2.0}, 500);
  EXPECT_EQ(boxed.x[0], 0.5);
  EXPECT_NEAR(boxed.x[1], 0.25, 1e-5);
  EXPECT_NEAR(boxed.value, 0.25, 1e-9);
}

TEST(GpMleMinimizer, HandlesNonFiniteObjective) {
  // Undefined below 0.8, minimum at 1: from 1.3 the first step (capped at
  // a tenth of the box, 0.6) lands at 0.7 and has to backtrack.
  std::size_t undefined = 0;
  auto partial = [&undefined](const std::vector<double>& x,
                              std::vector<double>& g) {
    g[0] = 2.0 * (x[0] - 1.0);
    if (x[0] < 0.8) {
      ++undefined;
      return std::nan("");
    }
    return (x[0] - 1.0) * (x[0] - 1.0);
  };
  const mle::Box box = cube(1, -2.0, 4.0);
  const mle::MinimizeResult r = mle::minimize_box(partial, box, {1.3}, 100);
  EXPECT_GT(undefined, 0u);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_TRUE(std::isfinite(r.value));
  // A start where the objective is undefined has no gradient to follow:
  // one evaluation, reported as +∞.
  const mle::MinimizeResult stuck = mle::minimize_box(partial, box, {0.0}, 100);
  EXPECT_TRUE(std::isinf(stuck.value));
  EXPECT_EQ(stuck.evals, 1u);
}

TEST(GpMleMinimizer, EvalBudgetRespected) {
  std::size_t calls = 0;
  auto counted = [&calls](const std::vector<double>& x,
                          std::vector<double>& g) {
    ++calls;
    return rosenbrock(x, g);
  };
  const mle::MinimizeResult r =
      mle::minimize_box(counted, cube(2), {-1.0, 2.0}, 10);
  EXPECT_EQ(r.evals, calls);
  EXPECT_LE(r.evals, 10u);
  calls = 0;
  const mle::MinimizeResult m =
      mle::multistart_minimize(counted, cube(2), 3, 5, nullptr, 10);
  EXPECT_EQ(m.evals, calls);  // summed over the starts
  EXPECT_LE(m.evals, 30u);
}

TEST(GpMleMinimizer, RejectsEmptyBox) {
  EXPECT_THROW(mle::minimize_box(sphere, mle::Box{}, {}, 10), Error);
}

TEST(GpMleMinimizer, RejectsInvertedBox) {
  mle::Box box;
  box.lo = {1.0};
  box.hi = {0.0};
  EXPECT_THROW(mle::minimize_box(sphere, box, {0.5}, 10), Error);
  EXPECT_THROW(mle::multistart_minimize(sphere, box, 2, 1, nullptr, 10),
               Error);
}

class GpMleMinimizerDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GpMleMinimizerDimSweep, SphereConvergesInAllDims) {
  const std::size_t d = GetParam();
  const std::vector<double> x0(d, 1.5);
  const mle::MinimizeResult r =
      mle::minimize_box(sphere, cube(d, -2.0, 2.0), x0, 200);
  EXPECT_LT(r.value, 1e-8) << "d = " << d;
}

INSTANTIATE_TEST_SUITE_P(Dims, GpMleMinimizerDimSweep,
                         ::testing::Values<std::size_t>(1, 2, 4, 8));

// Double well: local minimum at −1.2 (value 0.5), global at 1.2 (value 0).
double double_well(const std::vector<double>& x, std::vector<double>& g) {
  const double v = x[0];
  g[0] = v * (v * v - 1.44);
  return 0.25 * (v * v - 1.44) * (v * v - 1.44) + (v < 0.0 ? 0.5 : 0.0);
}

TEST(GpMleMultistart, EscapesLocalMinimum) {
  const mle::Box box = cube(1, -3.0, 3.0);
  const mle::MinimizeResult single =
      mle::minimize_box(double_well, box, {-1.1}, 100);
  const mle::MinimizeResult multi =
      mle::multistart_minimize(double_well, box, 8, 7, nullptr, 100);
  EXPECT_LT(multi.value, single.value - 0.1);
  EXPECT_NEAR(multi.x[0], 1.2, 1e-3);
}

TEST(GpMleMultistart, DeterministicPerSeed) {
  const mle::MinimizeResult a =
      mle::multistart_minimize(rosenbrock, cube(2), 4, 99, nullptr, 60);
  const mle::MinimizeResult b =
      mle::multistart_minimize(rosenbrock, cube(2), 4, 99, nullptr, 60);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.evals, b.evals);
}

TEST(GpMleMultistart, UsesProvidedStart) {
  // Zero restarts but an explicit x0 still runs one optimization: the one
  // minimize_box runs from x0, which finds the well x0 sits in.
  const mle::Box box = cube(1, -3.0, 3.0);
  const std::vector<double> x0{-1.0};
  const mle::MinimizeResult r =
      mle::multistart_minimize(double_well, box, 0, 1, &x0, 100);
  const mle::MinimizeResult direct =
      mle::minimize_box(double_well, box, x0, 100);
  EXPECT_EQ(r.x, direct.x);
  EXPECT_EQ(r.evals, direct.evals);
  EXPECT_NEAR(r.x[0], -1.2, 1e-3);
  EXPECT_THROW(mle::multistart_minimize(double_well, box, 0, 1, nullptr, 100),
               Error);
}

}  // namespace
}  // namespace pamo::gp
