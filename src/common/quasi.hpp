// Low-discrepancy sequences for space-filling candidate generation.
//
// Bayesian-optimization candidate pools want better-than-random coverage of
// the (up to ~40-dimensional) joint configuration space. We use a
// randomized (digit-permuted) Halton sequence: valid in any dimension, no
// direction-number tables required, and the per-dimension random digit
// permutations break the correlation artifacts of plain Halton in higher
// dimensions. Deterministic given the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace pamo {

/// Randomized-Halton generator producing points in the unit hypercube.
/// Coordinate d of point k is the scrambled radical inverse of k in the
/// d-th prime base: Σ_j π_d(a_j)·b^-(j+1) over k's base-b digits a_j,
/// least significant first. The sequence keeps every index's digits per
/// dimension and carries on each step, so no coordinate needs a 64-bit
/// division.
class HaltonSequence {
 public:
  /// @param dim   dimensionality of generated points (>= 1).
  /// @param seed  seed for the digit-scrambling permutations.
  HaltonSequence(std::size_t dim, std::uint64_t seed);

  /// Next point in [0,1)^dim: every coordinate(d), then advance().
  std::vector<double> next();

  /// Coordinate d of the point next() returns next, without moving on.
  /// Callers that may reject a point early read only the coordinates
  /// they need.
  [[nodiscard]] double coordinate(std::size_t d) const;

  /// Move past the current point.
  void advance();

  [[nodiscard]] std::size_t dim() const { return bases_.size(); }

 private:
  std::vector<std::uint32_t> bases_;
  // perms_[d] holds a permutation of {0, ..., base_d - 1}; digit 0 is pinned
  // so leading zeros do not shift the value.
  std::vector<std::vector<std::uint32_t>> perms_;
  // digits_[offsets_[d] ...] holds the current index in base bases_[d],
  // least significant digit first, with room for any 64-bit index;
  // num_digits_[d] of them are significant. powers_ has the same layout:
  // b^-(j+1) for those digits, 1/b, then each the previous one times 1/b.
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> digits_;
  std::vector<std::size_t> num_digits_;
  std::vector<double> powers_;
};

/// First `n` primes (used as Halton bases). Exposed for testing.
std::vector<std::uint32_t> first_primes(std::size_t n);

}  // namespace pamo
