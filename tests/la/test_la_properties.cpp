// Property tests for the batched la kernels over seeded random inputs: the
// fast paths must agree with naive references — and, where the
// implementation argues bit-for-bit equivalence (batched substitution), the
// comparison is exact, not approximate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/cholesky.hpp"
#include "la/matrix.hpp"

namespace pamo::la {
namespace {

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform(-2.0, 2.0);
  }
  return m;
}

/// A = MᵀM + n·I — comfortably positive definite at every size used here.
Matrix random_spd(Rng& rng, std::size_t n) {
  const Matrix m = random_matrix(rng, n, n);
  Matrix a = matmul(m.transposed(), m);
  a.add_diagonal(static_cast<double>(n));
  return a;
}

// ---- batched triangular solves --------------------------------------------

TEST(LaProperties, BatchedSolveLowerMatchesColumnwiseVectorSolves) {
  Rng rng(0x5eed0004ULL);
  const std::size_t n = 41;
  const Cholesky chol(random_spd(rng, n));
  const Matrix b = random_matrix(rng, n, 13);
  const Matrix batched = chol.solve_lower(b);
  ASSERT_EQ(batched.rows(), n);
  ASSERT_EQ(batched.cols(), 13u);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    Vector col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, c);
    const Vector ref = chol.solve_lower(col);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched(i, c), ref[i]);  // pamo-analyze: allow(float-eq)
    }
  }
}

TEST(LaProperties, BatchedSolveUpperMatchesColumnwiseVectorSolves) {
  Rng rng(0x5eed0005ULL);
  const std::size_t n = 33;
  const Cholesky chol(random_spd(rng, n));
  const Matrix y = random_matrix(rng, n, 7);
  const Matrix batched = chol.solve_upper(y);
  for (std::size_t c = 0; c < y.cols(); ++c) {
    Vector col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = y(i, c);
    const Vector ref = chol.solve_upper(col);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched(i, c), ref[i]);  // pamo-analyze: allow(float-eq)
    }
  }
}

TEST(LaProperties, MatrixSolveLeavesSmallResidual) {
  Rng rng(0x5eed0006ULL);
  const std::size_t n = 29;
  const Matrix a = random_spd(rng, n);
  const Cholesky chol(a);
  const Matrix b = random_matrix(rng, n, 5);
  const Matrix x = chol.solve(b);
  const Matrix ax = matmul(a, x);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < b.cols(); ++c) {
      EXPECT_NEAR(ax(i, c), b(i, c), 1e-8);
    }
  }
}

TEST(LaProperties, FactorReproducesInputToTolerance) {
  Rng rng(0x5eed000aULL);
  const std::size_t n = 48;
  const Matrix a = random_spd(rng, n);
  const Cholesky chol(a);
  const Matrix& l = chol.lower();
  const Matrix llt = matmul(l, l.transposed());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(llt(i, j), a(i, j), 1e-10);
    }
  }
}

}  // namespace
}  // namespace pamo::la
