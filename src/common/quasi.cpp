#include "common/quasi.hpp"

#include <numeric>

#include "common/error.hpp"

namespace pamo {

std::vector<std::uint32_t> first_primes(std::size_t n) {
  std::vector<std::uint32_t> primes;
  primes.reserve(n);
  std::uint32_t candidate = 2;
  while (primes.size() < n) {
    bool is_prime = true;
    for (std::uint32_t p : primes) {
      if (p * p > candidate) break;
      if (candidate % p == 0) {
        is_prime = false;
        break;
      }
    }
    if (is_prime) primes.push_back(candidate);
    ++candidate;
  }
  return primes;
}

HaltonSequence::HaltonSequence(std::size_t dim, std::uint64_t seed) {
  PAMO_CHECK(dim >= 1, "HaltonSequence dimension must be >= 1");
  bases_ = first_primes(dim);
  perms_.resize(dim);
  Rng rng(seed);
  for (std::size_t d = 0; d < dim; ++d) {
    const std::uint32_t base = bases_[d];
    std::vector<std::uint32_t> perm(base);
    std::iota(perm.begin(), perm.end(), 0u);
    // Shuffle digits 1..base-1; keep 0 fixed so trailing zero digits do not
    // perturb the radical inverse.
    for (std::size_t i = base - 1; i > 1; --i) {
      std::size_t j = 1 + rng.uniform_index(i);
      std::swap(perm[i], perm[j]);
    }
    perms_[d] = std::move(perm);
  }
  // Start at index 1: index 0 (the all-zeros point) adds nothing to
  // coverage.
  offsets_.assign(dim + 1, 0);
  for (std::size_t d = 0; d < dim; ++d) {
    std::size_t width = 0;
    for (std::uint64_t x = ~std::uint64_t{0}; x > 0; x /= bases_[d]) ++width;
    offsets_[d + 1] = offsets_[d] + width;
  }
  digits_.assign(offsets_[dim], 0);
  num_digits_.assign(dim, 1);
  powers_.assign(offsets_[dim], 0.0);
  for (std::size_t d = 0; d < dim; ++d) {
    digits_[offsets_[d]] = 1;
    powers_[offsets_[d]] = 1.0 / static_cast<double>(bases_[d]);
  }
}

double HaltonSequence::coordinate(std::size_t d) const {
  const std::uint32_t* perm = perms_[d].data();
  const std::uint32_t* digits = &digits_[offsets_[d]];
  const double* powers = &powers_[offsets_[d]];
  double value = 0.0;
  for (std::size_t j = 0; j < num_digits_[d]; ++j) {
    value += static_cast<double>(perm[digits[j]]) * powers[j];
  }
  return value;
}

void HaltonSequence::advance() {
  for (std::size_t d = 0; d < bases_.size(); ++d) {
    // Digits past the significant ones are 0, so a carry out of the top
    // digit starts a new one at 1.
    std::uint32_t* digits = &digits_[offsets_[d]];
    std::size_t j = 0;
    while (++digits[j] == bases_[d]) digits[j++] = 0;
    if (j == num_digits_[d]) {
      // Times 1/b, not divided by b: the same rounding as the radical
      // inverse's running factor.
      double* powers = &powers_[offsets_[d]];
      powers[j] = powers[j - 1] * powers[0];
      num_digits_[d] = j + 1;
    }
  }
}

std::vector<double> HaltonSequence::next() {
  std::vector<double> point(bases_.size());
  for (std::size_t d = 0; d < bases_.size(); ++d) point[d] = coordinate(d);
  advance();
  return point;
}

}  // namespace pamo
