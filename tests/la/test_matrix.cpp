#include "la/matrix.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pamo::la {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, AddDiagonal) {
  Matrix m(2, 2, 1.0);
  m.add_diagonal(0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
  Matrix rect(2, 3);
  EXPECT_THROW(rect.add_diagonal(1.0), Error);
}

TEST(Matrix, Transposed) {
  Matrix m(2, 3);
  int v = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) m(i, j) = ++v;
  }
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(t(j, i), m(i, j));
  }
}

TEST(Matmul, KnownProduct) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6;
  b(1, 0) = 7; b(1, 1) = 8;
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matmul, IdentityIsNeutral) {
  Matrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      a(i, j) = static_cast<double>(i * 3 + j);
    }
  }
  const Matrix c = matmul(a, Matrix::identity(3));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(c(i, j), a(i, j));
  }
}

TEST(Matmul, DimensionMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 2)), Error);
}

TEST(Matvec, KnownProduct) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 0; a(0, 2) = 2;
  a(1, 0) = 0; a(1, 1) = 3; a(1, 2) = -1;
  const Vector y = matvec(a, {1.0, 2.0, 3.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(VectorOps, DotAxpyNorm) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  Vector y = b;
  axpy(2.0, a, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_THROW(dot(a, {1.0}), Error);
}

}  // namespace
}  // namespace pamo::la
