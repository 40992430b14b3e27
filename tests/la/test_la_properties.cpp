// Property tests for the blocked / batched / incremental la kernels over
// seeded random inputs: the fast paths must agree with naive references —
// and, where the implementation argues bit-for-bit equivalence (blocked
// matmul, batched substitution, Cholesky extension), the comparison is
// exact, not approximate.
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

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      c(i, j) = sum;
    }
  }
  return c;
}

void expect_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j))  // pamo-analyze: allow(float-eq)
          << "mismatch at (" << i << ", " << j << ")";
    }
  }
}

// ---- blocked matmul -------------------------------------------------------

TEST(LaProperties, BlockedMatmulMatchesNaiveReference) {
  Rng rng(0x5eed0001ULL);
  const Matrix a = random_matrix(rng, 37, 53);
  const Matrix b = random_matrix(rng, 53, 29);
  const Matrix fast = matmul_blocked(a, b);
  const Matrix ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      EXPECT_NEAR(fast(i, j), ref(i, j), 1e-10);
    }
  }
}

TEST(LaProperties, BlockedMatmulIsBitIdenticalToMatmul) {
  // The k loop is ascending and untiled, so every output element sees the
  // exact FP accumulation order of matmul() at any tile size.
  Rng rng(0x5eed0002ULL);
  for (std::size_t trial = 0; trial < 4; ++trial) {
    const std::size_t rows = 16 + 23 * trial;
    const std::size_t inner = 9 + 31 * trial;
    const std::size_t cols = 5 + 17 * trial;
    const Matrix a = random_matrix(rng, rows, inner);
    const Matrix b = random_matrix(rng, inner, cols);
    const Matrix base = matmul(a, b);
    for (std::size_t block : {1ul, 7ul, 16ul, 64ul, 1000ul}) {
      expect_identical(matmul_blocked(a, b, block), base);
    }
  }
}

TEST(LaProperties, BlockedMatmulHandlesDegenerateShapes) {
  Rng rng(0x5eed0003ULL);
  const Matrix a = random_matrix(rng, 1, 64);
  const Matrix b = random_matrix(rng, 64, 1);
  expect_identical(matmul_blocked(a, b), matmul(a, b));
  const Matrix empty_a(0, 0);
  const Matrix empty_b(0, 0);
  const Matrix c = matmul_blocked(empty_a, empty_b);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 0u);
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

// ---- incremental Cholesky extension ---------------------------------------

/// Build the (n+m)×(n+m) matrix [[A, crossᵀ], [cross, corner]].
Matrix grown_matrix(const Matrix& a, const Matrix& cross,
                    const Matrix& corner) {
  const std::size_t n = a.rows();
  const std::size_t m = corner.rows();
  Matrix full(n + m, n + m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) full(i, j) = a(i, j);
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      full(n + i, j) = cross(i, j);
      full(j, n + i) = cross(i, j);
    }
    for (std::size_t j = 0; j < m; ++j) full(n + i, n + j) = corner(i, j);
  }
  return full;
}

TEST(LaProperties, ExtendMatchesFromScratchFactorBitForBit) {
  Rng rng(0x5eed0007ULL);
  for (std::size_t m : {1ul, 3ul, 8ul}) {
    const std::size_t n = 24;
    // Grow an SPD matrix of order n+m and factor its leading block, so the
    // extension below reproduces the full factorization exactly.
    const Matrix src = random_matrix(rng, n + m, n + m);
    Matrix full = matmul(src.transposed(), src);
    full.add_diagonal(static_cast<double>(n + m));
    Matrix lead(n, n);
    Matrix cross(m, n);
    Matrix corner(m, m);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) lead(i, j) = full(i, j);
    }
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) cross(i, j) = full(n + i, j);
      for (std::size_t j = 0; j < m; ++j) corner(i, j) = full(n + i, n + j);
    }
    Cholesky incremental(lead);
    ASSERT_TRUE(incremental.extend(cross, corner));
    const Cholesky scratch(full);
    expect_identical(incremental.lower(), scratch.lower());
    EXPECT_EQ(incremental.jitter(), 0.0);  // pamo-analyze: allow(float-eq)
  }
}

TEST(LaProperties, ExtendedFactorSolvesTheGrownSystem) {
  Rng rng(0x5eed0008ULL);
  const std::size_t n = 20;
  const std::size_t m = 4;
  const Matrix a = random_spd(rng, n);
  Cholesky chol(a);
  const Matrix cross = random_matrix(rng, m, n);
  // corner = cross·A⁻¹·crossᵀ + m·I keeps the Schur complement positive.
  const Matrix inv_cross = chol.solve(cross.transposed());
  Matrix corner = matmul(cross, inv_cross);
  corner.add_diagonal(static_cast<double>(m));
  const Matrix full = grown_matrix(a, cross, corner);
  ASSERT_TRUE(chol.extend(cross, corner));
  const Matrix b = random_matrix(rng, n + m, 3);
  const Matrix x = chol.solve(b);
  const Matrix ax = matmul(full, x);
  for (std::size_t i = 0; i < n + m; ++i) {
    for (std::size_t c = 0; c < b.cols(); ++c) {
      EXPECT_NEAR(ax(i, c), b(i, c), 1e-8);
    }
  }
}

TEST(LaProperties, ExtendRefusesJitteredFactor) {
  // A singular matrix forces the jitter ladder; the resulting factor must
  // refuse extension (the ladder re-runs on the full matrix, which an
  // extension cannot imitate).
  const std::size_t n = 6;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = 1.0;
  }
  Cholesky chol(a, /*max_jitter=*/1.0);
  ASSERT_GT(chol.jitter(), 0.0);
  const Matrix before = chol.lower();
  Matrix cross(1, n, 0.5);
  Matrix corner(1, 1, 10.0);
  EXPECT_FALSE(chol.extend(cross, corner));
  expect_identical(chol.lower(), before);
}

TEST(LaProperties, ExtendRefusesNonPositiveSchurComplement) {
  Rng rng(0x5eed0009ULL);
  const std::size_t n = 10;
  const Matrix a = random_spd(rng, n);
  Cholesky chol(a);
  const Matrix before = chol.lower();
  // A zero corner cannot dominate cross·A⁻¹·crossᵀ: Schur diag goes
  // non-positive and the factor must stay untouched.
  Matrix cross(2, n, 1.0);
  Matrix corner(2, 2, 0.0);
  EXPECT_FALSE(chol.extend(cross, corner));
  expect_identical(chol.lower(), before);
  // The refused factor must still be usable.
  const Vector b(n, 1.0);
  const Vector x = chol.solve(b);
  const Vector ax = matvec(a, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
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
