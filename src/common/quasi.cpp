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
  // Skip index 0 (the all-zeros point) — it adds nothing to coverage.
  index_ = 1;
}

double HaltonSequence::scrambled_radical_inverse(std::size_t d,
                                                 std::uint64_t index) const {
  const std::uint64_t base = bases_[d];
  const auto& perm = perms_[d];
  double inv_base = 1.0 / static_cast<double>(base);
  double factor = inv_base;
  double value = 0.0;
  while (index > 0) {
    const auto digit = static_cast<std::uint32_t>(index % base);
    value += static_cast<double>(perm[digit]) * factor;
    index /= base;
    factor *= inv_base;
  }
  return value;
}

std::vector<double> HaltonSequence::next() {
  std::vector<double> point(bases_.size());
  for (std::size_t d = 0; d < bases_.size(); ++d) {
    point[d] = scrambled_radical_inverse(d, index_);
  }
  ++index_;
  return point;
}

}  // namespace pamo
