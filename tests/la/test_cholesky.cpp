#include "la/cholesky.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pamo::la {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  // A = B Bᵀ + n·I is SPD for any B.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a = matmul(b, b.transposed());
  a.add_diagonal(static_cast<double>(n));
  return a;
}

TEST(Cholesky, FactorReconstructs) {
  Rng rng(1);
  const Matrix a = random_spd(8, rng);
  const Cholesky chol(a);
  const Matrix l = chol.lower();
  const Matrix rec = matmul(l, l.transposed());
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(rec(i, j), a(i, j), 1e-9);
    }
  }
  EXPECT_DOUBLE_EQ(chol.jitter(), 0.0);
}

TEST(Cholesky, SolveMatchesDirect) {
  Rng rng(2);
  const Matrix a = random_spd(12, rng);
  Vector b(12);
  for (auto& v : b) v = rng.normal();
  const Cholesky chol(a);
  const Vector x = chol.solve(b);
  const Vector ax = matvec(a, x);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(Cholesky, MatrixSolve) {
  Rng rng(3);
  const Matrix a = random_spd(6, rng);
  const Cholesky chol(a);
  const Matrix inv = chol.solve(Matrix::identity(6));
  const Matrix prod = matmul(a, inv);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Cholesky, TriangularSolvesCompose) {
  Rng rng(4);
  const Matrix a = random_spd(5, rng);
  Vector b(5);
  for (auto& v : b) v = rng.normal();
  const Cholesky chol(a);
  const Vector y = chol.solve_lower(b);
  const Vector x = chol.solve_upper(y);
  const Vector direct = chol.solve(b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], direct[i], 1e-12);
}

TEST(Cholesky, LogDetMatchesKnownMatrix) {
  // diag(4, 9) → |A| = 36, log det = log 36.
  Matrix a(2, 2, 0.0);
  a(0, 0) = 4.0;
  a(1, 1) = 9.0;
  const Cholesky chol(a);
  EXPECT_NEAR(chol.log_det(), std::log(36.0), 1e-12);
}

TEST(Cholesky, RepairsSemidefiniteWithJitter) {
  // Rank-1 PSD matrix: [1 1; 1 1].
  Matrix a(2, 2, 1.0);
  const Cholesky chol(a);
  EXPECT_GT(chol.jitter(), 0.0);
  const Matrix l = chol.lower();
  const Matrix rec = matmul(l, l.transposed());
  EXPECT_NEAR(rec(0, 0), 1.0, 1e-3);
  EXPECT_NEAR(rec(0, 1), 1.0, 1e-3);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = -5.0;
  EXPECT_THROW((Cholesky{a}), Error);
}

TEST(Cholesky, RejectsNonSquareAndEmpty) {
  EXPECT_THROW((Cholesky{Matrix(2, 3)}), Error);
  EXPECT_THROW((Cholesky{Matrix(0, 0)}), Error);
}

class CholeskySizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizeSweep, SolveResidualSmall) {
  const std::size_t n = GetParam();
  Rng rng(42 + n);
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  const Cholesky chol(a);
  const Vector x = chol.solve(b);
  const Vector ax = matvec(a, x);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) err = std::max(err, std::fabs(ax[i] - b[i]));
  EXPECT_LT(err, 1e-7) << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 16, 64,
                                                        128));

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CholeskyBatched, MatrixSolvesMatchVectorSolvesBitForBit) {
  // The batched solve_lower/solve_upper claim per-column arithmetic
  // identical to the vector solves — including at the degenerate shapes:
  // a 1x1 system and a single-column right-hand side.
  Rng rng(65);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}}) {
    for (const std::size_t cols : {std::size_t{1}, std::size_t{4}}) {
      const Matrix a = random_spd(n, rng);
      const Cholesky chol(a);
      Matrix b(n, cols);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < cols; ++c) b(i, c) = rng.normal();
      }
      const Matrix y = chol.solve_lower(b);
      const Matrix x = chol.solve_upper(y);
      for (std::size_t c = 0; c < cols; ++c) {
        Vector col(n);
        for (std::size_t i = 0; i < n; ++i) col[i] = b(i, c);
        const Vector yv = chol.solve_lower(col);
        const Vector xv = chol.solve_upper(yv);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(y(i, c)), bits(yv[i])) << "n=" << n << " col=" << c;
          EXPECT_EQ(bits(x(i, c)), bits(xv[i])) << "n=" << n << " col=" << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pamo::la
