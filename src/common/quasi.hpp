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
class HaltonSequence {
 public:
  /// @param dim   dimensionality of generated points (>= 1).
  /// @param seed  seed for the digit-scrambling permutations.
  HaltonSequence(std::size_t dim, std::uint64_t seed);

  /// Next point in [0,1)^dim.
  std::vector<double> next();

  [[nodiscard]] std::size_t dim() const { return bases_.size(); }

 private:
  double scrambled_radical_inverse(std::size_t d, std::uint64_t index) const;

  std::vector<std::uint32_t> bases_;
  // perms_[d] holds a permutation of {0, ..., base_d - 1}; digit 0 is pinned
  // so leading zeros do not shift the value.
  std::vector<std::vector<std::uint32_t>> perms_;
  std::uint64_t index_ = 0;
};

/// First `n` primes (used as Halton bases). Exposed for testing.
std::vector<std::uint32_t> first_primes(std::size_t n);

}  // namespace pamo
