// Dense row-major matrix and vector operations sized for exact GP
// inference (hundreds to low thousands of rows). No BLAS dependency; the
// kernels are cache-friendly triple loops, adequate at this scale.
#pragma once

#include <cstddef>
#include <vector>

namespace pamo::la {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  static Matrix identity(std::size_t n);

  /// In-place: this += s * I (requires square).
  void add_diagonal(double s);

  [[nodiscard]] Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// c = a * b.
Matrix matmul(const Matrix& a, const Matrix& b);

/// y = a * x.
Vector matvec(const Matrix& a, const Vector& x);

/// Dot product.
double dot(const Vector& a, const Vector& b);

/// y += s * x.
void axpy(double s, const Vector& x, Vector& y);

}  // namespace pamo::la
