#include "gp/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "la/cholesky.hpp"

namespace pamo::gp {
namespace {

KernelParams make_params(std::size_t dim, double ls = 1.0, double sf2 = 1.0) {
  KernelParams p;
  p.log_lengthscales.assign(dim, std::log(ls));
  p.log_signal_var = std::log(sf2);
  return p;
}

TEST(KernelParams, PackUnpackRoundTrip) {
  KernelParams p = make_params(3, 0.5, 2.0);
  p.log_noise_var = -3.0;
  const KernelParams q = KernelParams::unpack(p.pack(), 3);
  EXPECT_EQ(q.log_lengthscales, p.log_lengthscales);
  EXPECT_DOUBLE_EQ(q.log_signal_var, p.log_signal_var);
  EXPECT_DOUBLE_EQ(q.log_noise_var, p.log_noise_var);
  EXPECT_THROW(KernelParams::unpack(p.pack(), 4), Error);
}

TEST(Kernel, RbfAtZeroDistanceIsSignalVar) {
  const KernelParams p = make_params(2, 1.0, 3.0);
  const std::vector<double> x{0.4, -1.2};
  EXPECT_DOUBLE_EQ(kernel_value(KernelType::kRbf, p, x, x), 3.0);
  EXPECT_DOUBLE_EQ(kernel_value(KernelType::kMatern52, p, x, x), 3.0);
}

TEST(Kernel, RbfKnownValue) {
  const KernelParams p = make_params(1, 2.0, 1.0);
  // r² = (1/2)² = 0.25 → exp(-0.125).
  EXPECT_NEAR(kernel_value(KernelType::kRbf, p, {0.0}, {1.0}),
              std::exp(-0.125), 1e-14);
}

TEST(Kernel, Matern52KnownValue) {
  const KernelParams p = make_params(1, 1.0, 1.0);
  const double r = 0.7;
  const double sqrt5r = std::sqrt(5.0) * r;
  const double expected =
      (1.0 + sqrt5r + 5.0 / 3.0 * r * r) * std::exp(-sqrt5r);
  EXPECT_NEAR(kernel_value(KernelType::kMatern52, p, {0.0}, {r}), expected,
              1e-14);
}

TEST(Kernel, DecreasesWithDistance) {
  const KernelParams p = make_params(1, 1.0, 1.0);
  double prev = 2.0;
  for (double r = 0.0; r < 5.0; r += 0.5) {
    const double v = kernel_value(KernelType::kRbf, p, {0.0}, {r});
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(Kernel, ArdLengthscalesWeightDimensions) {
  KernelParams p = make_params(2, 1.0, 1.0);
  p.log_lengthscales[1] = std::log(100.0);  // dimension 1 nearly ignored
  const double v_dim0 =
      kernel_value(KernelType::kRbf, p, {0.0, 0.0}, {1.0, 0.0});
  const double v_dim1 =
      kernel_value(KernelType::kRbf, p, {0.0, 0.0}, {0.0, 1.0});
  EXPECT_LT(v_dim0, v_dim1);
  EXPECT_NEAR(v_dim1, 1.0, 1e-3);
}

TEST(Kernel, DimensionMismatchThrows) {
  const KernelParams p = make_params(2);
  EXPECT_THROW(kernel_value(KernelType::kRbf, p, {0.0}, {0.0, 1.0}), Error);
}

TEST(KernelMatrix, SymmetricWithSignalDiagonal) {
  const KernelParams p = make_params(2, 0.8, 1.7);
  const std::vector<std::vector<double>> x{{0, 0}, {1, 0}, {0, 2}, {3, 3}};
  const la::Matrix k = kernel_matrix(KernelType::kMatern52, p, x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(k(i, i), 1.7);
    for (std::size_t j = 0; j < x.size(); ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
    }
  }
}

/// The pre-hoist formula: every pair exponentiates σ_f² and each inverse
/// lengthscale itself. The hoisted evaluator must reproduce it bit for bit.
double per_pair_reference(KernelType type, const KernelParams& p,
                          const std::vector<double>& x,
                          const std::vector<double>& z) {
  double r2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = (x[i] - z[i]) * std::exp(-p.log_lengthscales[i]);
    r2 += d * d;
  }
  const double sf2 = std::exp(p.log_signal_var);
  if (type == KernelType::kRbf) return sf2 * std::exp(-0.5 * r2);
  const double sqrt5_r = 2.2360679774997896 * std::sqrt(r2);
  return sf2 * (1.0 + sqrt5_r + 5.0 / 3.0 * r2) * std::exp(-sqrt5_r);
}

TEST(KernelMatrix, MatchesCrossOnSameInputs) {
  for (const KernelType type : {KernelType::kRbf, KernelType::kMatern52}) {
    for (const std::size_t dim : {std::size_t{2}, std::size_t{5}}) {
      KernelParams p = make_params(dim, 1.0, 1.7);
      for (std::size_t d = 0; d < dim; ++d) {
        p.log_lengthscales[d] = std::log(0.3 + 0.45 * static_cast<double>(d));
      }
      std::vector<std::vector<double>> x;
      std::vector<std::vector<double>> z;
      for (int i = 0; i < 6; ++i) {
        std::vector<double> row(dim);
        for (std::size_t d = 0; d < dim; ++d) {
          row[d] = std::sin(0.7 * i + 1.3 * static_cast<double>(d));
        }
        (i % 2 == 0 ? x : z).push_back(row);
      }
      const KernelEvaluator k_eval(type, p);
      const la::Matrix k = kernel_matrix(type, p, x);
      const la::Matrix same = kernel_cross(type, p, x, x);
      const la::Matrix cross = kernel_cross(type, p, x, z);
      for (std::size_t i = 0; i < x.size(); ++i) {
        for (std::size_t j = 0; j < x.size(); ++j) {
          const double ref = per_pair_reference(type, p, x[i], x[j]);
          EXPECT_EQ(k(i, j), ref);
          EXPECT_EQ(same(i, j), ref);
          EXPECT_EQ(kernel_value(type, p, x[i], x[j]), ref);
          EXPECT_EQ(k_eval(x[i], x[j]), ref);
        }
        for (std::size_t j = 0; j < z.size(); ++j) {
          const double ref = per_pair_reference(type, p, x[i], z[j]);
          EXPECT_EQ(cross(i, j), ref);
          EXPECT_EQ(kernel_value(type, p, x[i], z[j]), ref);
          EXPECT_EQ(k_eval(x[i], z[j]), ref);
        }
      }
    }
  }
}

TEST(KernelCross, DimensionMismatchThrows) {
  const KernelParams p = make_params(2);
  const std::vector<std::vector<double>> x{{0.0, 1.0}, {1.0, 0.0}};
  // A z row shorter than x, and a row longer than params.dim().
  EXPECT_THROW(kernel_cross(KernelType::kRbf, p, x, {{0.0}}), Error);
  EXPECT_THROW(kernel_cross(KernelType::kRbf, p, {{0.0, 1.0, 2.0}}, x), Error);
  EXPECT_THROW(kernel_cross(KernelType::kRbf, p, x, {{0.0, 1.0}, {1.0}}),
               Error);
  EXPECT_NO_THROW(kernel_cross(KernelType::kRbf, p, x, x));
}

class KernelPsdSweep
    : public ::testing::TestWithParam<std::tuple<KernelType, double>> {};

TEST_P(KernelPsdSweep, GramMatrixIsPositiveDefiniteWithJitter) {
  const auto [type, ls] = GetParam();
  const KernelParams p = make_params(3, ls, 1.0);
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 20; ++i) {
    x.push_back({i * 0.17, std::sin(i * 0.9), i % 5 * 0.3});
  }
  la::Matrix k = kernel_matrix(type, p, x);
  k.add_diagonal(1e-8);
  EXPECT_NO_THROW(la::Cholesky{k});
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelPsdSweep,
    ::testing::Combine(::testing::Values(KernelType::kRbf,
                                         KernelType::kMatern52),
                       ::testing::Values(0.1, 0.5, 1.0, 3.0)));

}  // namespace
}  // namespace pamo::gp
