#include "la/matrix.hpp"

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace pamo::la {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::add_diagonal(double s) {
  PAMO_CHECK(rows_ == cols_, "add_diagonal requires a square matrix");
  for (std::size_t i = 0; i < rows_; ++i) data_[i * cols_ + i] += s;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  PAMO_ENSURES(t.rows() == cols_ && t.cols() == rows_,
               "transpose swaps dimensions");
  return t;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  PAMO_CHECK(a.cols() == b.rows(), "matmul dimension mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  // i-k-j loop order: streams through b and c rows contiguously.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      // Exact-zero skip: sparsity shortcut, any nonzero must multiply.
      if (aik == 0.0) continue;  // pamo-analyze: allow(float-eq)
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

Vector matvec(const Matrix& a, const Vector& x) {
  PAMO_CHECK(a.cols() == x.size(), "matvec dimension mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) sum += a(i, j) * x[j];
    y[i] = sum;
  }
  return y;
}

double dot(const Vector& a, const Vector& b) {
  PAMO_CHECK(a.size() == b.size(), "dot dimension mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

void axpy(double s, const Vector& x, Vector& y) {
  PAMO_CHECK(x.size() == y.size(), "axpy dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += s * x[i];
}

}  // namespace pamo::la
