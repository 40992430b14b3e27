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

  /// Rebuild a factorization from a previously computed lower factor and
  /// its jitter (checkpoint/restore support). No numerical work happens:
  /// the result is the exact object that produced `lower`, so solves and
  /// extend() behave bit-for-bit as before the round-trip. `lower` must be
  /// square; its strict upper triangle is ignored by every operation.
  static Cholesky from_parts(Matrix lower, double jitter);

  [[nodiscard]] const Matrix& lower() const { return lower_; }
  /// The jitter that was finally added to the diagonal (0 if none).
  [[nodiscard]] double jitter() const { return jitter_; }

  /// Solve A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

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

  /// Grow the factor of A (n×n) into the factor of [[A, crossᵀ],[cross,
  /// corner]] in O(n²m) instead of the O((n+m)³) refactorization, where
  /// `cross` is m×n and `corner` is m×m (diagonal noise already added).
  /// The arithmetic matches the trailing columns of a from-scratch
  /// factorization operation-for-operation, so the extended factor is
  /// bit-for-bit identical to refactorizing the full matrix.
  ///
  /// Returns false — leaving this factor untouched — when the extension is
  /// not exactly reproducible: the extended matrix is not positive
  /// definite without jitter, or this factor itself carries jitter (the
  /// ladder re-runs from scratch on the full matrix, which an extension
  /// cannot imitate). Callers fall back to a full refactorization.
  [[nodiscard]] bool extend(const Matrix& cross, const Matrix& corner);

  /// log |A| = 2 Σ log L_ii.
  [[nodiscard]] double log_det() const;

 private:
  Cholesky() = default;  // for from_parts
  static bool try_factor(const Matrix& a, double jitter, Matrix& out);

  Matrix lower_;
  double jitter_ = 0.0;
};

}  // namespace pamo::la
