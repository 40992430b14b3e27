// Cholesky factorization and solves for symmetric positive-definite
// systems — the core primitive of exact GP inference.
#pragma once

#include "la/matrix.hpp"

namespace pamo::la {

/// Lower-triangular Cholesky factor L with A = L Lᵀ.
///
/// If A is only positive *semi*-definite numerically, the factorization
/// retries with geometrically increasing diagonal jitter (up to
/// `max_jitter`), the standard GP-library repair. Throws pamo::Error if the
/// matrix cannot be repaired.
class Cholesky {
 public:
  explicit Cholesky(const Matrix& a, double max_jitter = 1e-4);

  /// An empty factor for factorize() to fill.
  Cholesky() = default;

  /// Factor `a` as the constructor does, reusing this factor's storage
  /// when it is already a.rows() × a.rows(): the allocation-free form for
  /// a caller that refactorizes in a loop. Returns false instead of
  /// throwing when even the jitter cap cannot repair `a`; the factor is
  /// then unusable until the next successful factorize().
  [[nodiscard]] bool factorize(const Matrix& a, double max_jitter = 1e-4);

  /// Rebuild a factorization from a previously computed lower factor and
  /// its jitter (checkpoint/restore support). No numerical work happens:
  /// the result is the exact object that produced `lower`, so solves
  /// behave bit-for-bit as before the round-trip. `lower` must be
  /// square; its strict upper triangle is ignored by every operation.
  static Cholesky from_parts(Matrix lower, double jitter);

  [[nodiscard]] const Matrix& lower() const { return lower_; }
  /// The jitter that was finally added to the diagonal (0 if none).
  [[nodiscard]] double jitter() const { return jitter_; }

  /// Solve A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// solve() overwriting `b` with x: no allocation, same arithmetic.
  void solve_in_place(Vector& b) const;

  /// Solve A X = B for all columns at once (batched substitution).
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Solve L y = b (forward substitution).
  [[nodiscard]] Vector solve_lower(const Vector& b) const;

  /// Solve Lᵀ x = y (backward substitution).
  [[nodiscard]] Vector solve_upper(const Vector& y) const;

  /// Solve L Y = B for a full right-hand-side matrix. One row sweep
  /// streams L once for every column, with per-column arithmetic identical
  /// to the vector solve_lower (bit-for-bit).
  [[nodiscard]] Matrix solve_lower(const Matrix& b) const;

  /// Solve Lᵀ X = Y, batched like solve_lower(Matrix).
  [[nodiscard]] Matrix solve_upper(const Matrix& y) const;

  /// log |A| = 2 Σ log L_ii.
  [[nodiscard]] double log_det() const;

 private:
  static bool try_factor(const Matrix& a, double jitter, Matrix& out);
  /// Solve L y = b and Lᵀ x = y over the right-hand side's own storage.
  void forward_in_place(Vector& b) const;
  void backward_in_place(Vector& y) const;

  Matrix lower_;
  double jitter_ = 0.0;
};

}  // namespace pamo::la
