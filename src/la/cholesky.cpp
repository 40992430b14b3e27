#include "la/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace pamo::la {

bool Cholesky::try_factor(const Matrix& a, double jitter, Matrix& out) {
  const std::size_t n = a.rows();
  if (out.rows() == n && out.cols() == n) {
    std::fill(out.data().begin(), out.data().end(), 0.0);
  } else {
    out = Matrix(n, n, 0.0);
  }
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) diag -= out(j, k) * out(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    out(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= out(i, k) * out(j, k);
      out(i, j) = sum / ljj;
    }
  }
  return true;
}

Cholesky::Cholesky(const Matrix& a, double max_jitter) {
  if (!factorize(a, max_jitter)) {
    throw Error("Cholesky: matrix is not positive definite even with jitter");
  }
}

bool Cholesky::factorize(const Matrix& a, double max_jitter) {
  PAMO_CHECK(a.rows() == a.cols(), "Cholesky requires a square matrix");
  PAMO_CHECK(a.rows() > 0, "Cholesky of an empty matrix");
  PAMO_EXPECTS(max_jitter >= 0.0, "negative jitter cap");
  double jitter = 0.0;
  if (try_factor(a, jitter, lower_)) {
    jitter_ = jitter;
    PAMO_ENSURES(lower_.rows() == a.rows(), "factor keeps the input dimension");
    return true;
  }
  // Scale the starting jitter with the matrix magnitude.
  double scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    scale = std::max(scale, std::fabs(a(i, i)));
  }
  // An all-zero diagonal gives no magnitude to scale by; fall back to 1.
  if (scale == 0.0) scale = 1.0;  // pamo-analyze: allow(float-eq)
  jitter = scale * 1e-10;
  while (jitter <= max_jitter * scale) {
    if (try_factor(a, jitter, lower_)) {
      jitter_ = jitter;
      PAMO_ENSURES(lower_.rows() == a.rows(), "factor keeps the input dimension");
      return true;
    }
    jitter *= 10.0;
  }
  return false;
}

Cholesky Cholesky::from_parts(Matrix lower, double jitter) {
  PAMO_CHECK(lower.rows() == lower.cols(),
             "Cholesky factor must be square");
  PAMO_CHECK(lower.rows() > 0, "Cholesky factor must be non-empty");
  PAMO_CHECK(jitter >= 0.0, "Cholesky jitter must be non-negative");
  Cholesky out;
  out.lower_ = std::move(lower);
  out.jitter_ = jitter;
  return out;
}

void Cholesky::forward_in_place(Vector& b) const {
  const std::size_t n = lower_.rows();
  PAMO_CHECK(b.size() == n, "solve_lower dimension mismatch");
  // Entry i is overwritten only after every read of its old value.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= lower_(i, k) * b[k];
    b[i] = sum / lower_(i, i);
  }
}

void Cholesky::backward_in_place(Vector& y) const {
  const std::size_t n = lower_.rows();
  PAMO_CHECK(y.size() == n, "solve_upper dimension mismatch");
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= lower_(k, i) * y[k];
    y[i] = sum / lower_(i, i);
  }
}

Vector Cholesky::solve_lower(const Vector& b) const {
  Vector y = b;
  forward_in_place(y);
  return y;
}

Vector Cholesky::solve_upper(const Vector& y) const {
  Vector x = y;
  backward_in_place(x);
  return x;
}

Vector Cholesky::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

void Cholesky::solve_in_place(Vector& b) const {
  forward_in_place(b);
  backward_in_place(b);
}

Matrix Cholesky::solve_lower(const Matrix& b) const {
  const std::size_t n = lower_.rows();
  PAMO_CHECK(b.rows() == n, "solve_lower dimension mismatch");
  const std::size_t m = b.cols();
  Matrix y = b;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = lower_(i, k);
      for (std::size_t c = 0; c < m; ++c) y(i, c) -= lik * y(k, c);
    }
    const double lii = lower_(i, i);
    for (std::size_t c = 0; c < m; ++c) y(i, c) /= lii;
  }
  return y;
}

Matrix Cholesky::solve_upper(const Matrix& y) const {
  const std::size_t n = lower_.rows();
  PAMO_CHECK(y.rows() == n, "solve_upper dimension mismatch");
  const std::size_t m = y.cols();
  Matrix x = y;
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    for (std::size_t k = i + 1; k < n; ++k) {
      const double lki = lower_(k, i);
      for (std::size_t c = 0; c < m; ++c) x(i, c) -= lki * x(k, c);
    }
    const double lii = lower_(i, i);
    for (std::size_t c = 0; c < m; ++c) x(i, c) /= lii;
  }
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  PAMO_CHECK(b.rows() == lower_.rows(), "solve dimension mismatch");
  return solve_upper(solve_lower(b));
}

double Cholesky::log_det() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < lower_.rows(); ++i) sum += std::log(lower_(i, i));
  return 2.0 * sum;
}

}  // namespace pamo::la
