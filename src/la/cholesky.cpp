#include "la/cholesky.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace pamo::la {

bool Cholesky::try_factor(const Matrix& a, double jitter, Matrix& out) {
  const std::size_t n = a.rows();
  out = Matrix(n, n, 0.0);
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
  PAMO_CHECK(a.rows() == a.cols(), "Cholesky requires a square matrix");
  PAMO_CHECK(a.rows() > 0, "Cholesky of an empty matrix");
  PAMO_EXPECTS(max_jitter >= 0.0, "negative jitter cap");
  double jitter = 0.0;
  if (try_factor(a, jitter, lower_)) {
    jitter_ = jitter;
    PAMO_ENSURES(lower_.rows() == a.rows(), "factor keeps the input dimension");
    return;
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
      return;
    }
    jitter *= 10.0;
  }
  throw Error("Cholesky: matrix is not positive definite even with jitter");
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

Vector Cholesky::solve_lower(const Vector& b) const {
  const std::size_t n = lower_.rows();
  PAMO_CHECK(b.size() == n, "solve_lower dimension mismatch");
  Vector y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= lower_(i, k) * y[k];
    y[i] = sum / lower_(i, i);
  }
  return y;
}

Vector Cholesky::solve_upper(const Vector& y) const {
  const std::size_t n = lower_.rows();
  PAMO_CHECK(y.size() == n, "solve_upper dimension mismatch");
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= lower_(k, i) * x[k];
    x[i] = sum / lower_(i, i);
  }
  return x;
}

Vector Cholesky::solve(const Vector& b) const {
  return solve_upper(solve_lower(b));
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

bool Cholesky::extend(const Matrix& cross, const Matrix& corner) {
  const std::size_t n = lower_.rows();
  const std::size_t m = cross.rows();
  PAMO_CHECK(cross.cols() == n, "extend: cross block must be m x n");
  PAMO_CHECK(corner.rows() == m && corner.cols() == m,
             "extend: corner block must be m x m");
  PAMO_CHECK(m > 0, "extend with no new rows");
  // A jittered factor is L(A + jI); the full refactorization would rerun
  // the ladder on the grown matrix from jitter 0, which no extension of
  // this factor can reproduce exactly.
  if (jitter_ != 0.0) return false;  // pamo-analyze: allow(float-eq)

  // New rows of the factor: row r of L21 solves L11 y = cross(r, ·)ᵀ. The
  // accumulation (k ascending) and the divide match try_factor's column
  // sweep for these entries exactly.
  Matrix l21(m, n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = cross(r, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l21(r, k) * lower_(j, k);
      l21(r, j) = sum / lower_(j, j);
    }
  }

  // Trailing m x m factor of the Schur complement, again with
  // try_factor's exact accumulation order: the k sum over the old columns
  // (L21 entries) comes before the k sum over the new ones (L22 entries),
  // just as the full factorization walks k = 0..j-1 across both ranges.
  Matrix l22(m, m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    double diag = corner(j, j);
    for (std::size_t k = 0; k < n; ++k) diag -= l21(j, k) * l21(j, k);
    for (std::size_t k = 0; k < j; ++k) diag -= l22(j, k) * l22(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l22(j, j) = ljj;
    for (std::size_t i = j + 1; i < m; ++i) {
      double sum = corner(i, j);
      for (std::size_t k = 0; k < n; ++k) sum -= l21(i, k) * l21(j, k);
      for (std::size_t k = 0; k < j; ++k) sum -= l22(i, k) * l22(j, k);
      l22(i, j) = sum / ljj;
    }
  }

  // Commit only after the whole extension is known to succeed, so a failed
  // extend leaves the factor usable for the caller's full-refit fallback.
  Matrix grown(n + m, n + m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = lower_(i, j);
  }
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < n; ++j) grown(n + r, j) = l21(r, j);
    for (std::size_t j = 0; j <= r; ++j) grown(n + r, n + j) = l22(r, j);
  }
  lower_ = std::move(grown);
  PAMO_ENSURES(lower_.rows() == n + m, "extend grows the factor by m rows");
  return true;
}

double Cholesky::log_det() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < lower_.rows(); ++i) sum += std::log(lower_(i, i));
  return 2.0 * sum;
}

}  // namespace pamo::la
