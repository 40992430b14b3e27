// The scrambled Halton sequence in its division form: each coordinate is
// the radical inverse of the index, digit by digit through a 64-bit % and /.
// HaltonSequence keeps per-dimension digit counters instead; the suites
// compare the two bit for bit.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/quasi.hpp"
#include "common/rng.hpp"

namespace pamo::testing {

class ReferenceHalton {
 public:
  ReferenceHalton(std::size_t dim, std::uint64_t seed)
      : bases_(first_primes(dim)), perms_(dim) {
    Rng rng(seed);
    for (std::size_t d = 0; d < dim; ++d) {
      std::vector<std::uint32_t> perm(bases_[d]);
      std::iota(perm.begin(), perm.end(), 0U);
      for (std::size_t i = bases_[d] - 1; i > 1; --i) {
        const std::size_t j = 1 + rng.uniform_index(i);
        std::swap(perm[i], perm[j]);
      }
      perms_[d] = std::move(perm);
    }
  }

  /// Coordinate d of point `index`.
  [[nodiscard]] double coordinate(std::size_t d, std::uint64_t index) const {
    const std::uint64_t base = bases_[d];
    const double inv_base = 1.0 / static_cast<double>(base);
    double factor = inv_base;
    double value = 0.0;
    while (index > 0) {
      const auto digit = static_cast<std::uint32_t>(index % base);
      value += static_cast<double>(perms_[d][digit]) * factor;
      index /= base;
      factor *= inv_base;
    }
    return value;
  }

  /// The next point, starting at index 1.
  std::vector<double> next() {
    std::vector<double> point(bases_.size());
    for (std::size_t d = 0; d < point.size(); ++d) {
      point[d] = coordinate(d, index_);
    }
    ++index_;
    return point;
  }

 private:
  std::vector<std::uint32_t> bases_;
  std::vector<std::vector<std::uint32_t>> perms_;
  std::uint64_t index_ = 1;
};

}  // namespace pamo::testing
