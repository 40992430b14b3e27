#include "common/quasi.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "support/reference_halton.hpp"

namespace pamo {
namespace {

TEST(FirstPrimes, KnownPrefix) {
  const auto primes = first_primes(10);
  const std::vector<std::uint32_t> expected{2, 3, 5, 7, 11, 13, 17, 19, 23, 29};
  EXPECT_EQ(primes, expected);
}

TEST(Halton, PointsInUnitCube) {
  HaltonSequence seq(8, 42);
  for (int i = 0; i < 500; ++i) {
    const auto p = seq.next();
    ASSERT_EQ(p.size(), 8u);
    for (double x : p) {
      EXPECT_GE(x, 0.0);
      EXPECT_LT(x, 1.0);
    }
  }
}

TEST(Halton, RejectsZeroDimension) {
  EXPECT_THROW(HaltonSequence(0, 1), Error);
}

TEST(Halton, DeterministicPerSeed) {
  HaltonSequence a(4, 7);
  HaltonSequence b(4, 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Halton, DifferentSeedsScrambleDifferently) {
  // Base 2 has only the identity permutation of {1}, so compare a higher
  // dimension where scrambling can differ.
  HaltonSequence a(5, 1);
  HaltonSequence b(5, 2);
  bool any_diff = false;
  for (int i = 0; i < 20 && !any_diff; ++i) {
    if (a.next() != b.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Halton, MarginalMeansAreCentered) {
  const std::size_t dim = 6;
  HaltonSequence seq(dim, 11);
  std::vector<double> sums(dim, 0.0);
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto p = seq.next();
    for (std::size_t d = 0; d < dim; ++d) sums[d] += p[d];
  }
  for (std::size_t d = 0; d < dim; ++d) {
    EXPECT_NEAR(sums[d] / n, 0.5, 0.02) << "dimension " << d;
  }
}

TEST(Halton, BetterThanRandomStratificationInBase2) {
  // The first 2^k points of dimension 0 (base 2) hit every dyadic interval
  // exactly once — check 16 intervals over 16 points.
  HaltonSequence seq(1, 3);
  std::vector<int> bucket(16, 0);
  for (int i = 0; i < 16; ++i) {
    const auto p = seq.next();
    ++bucket[static_cast<int>(p[0] * 16.0)];
  }
  for (int b = 0; b < 16; ++b) EXPECT_EQ(bucket[b], 1) << "bucket " << b;
}

class HaltonDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HaltonDimSweep, CoversAllQuadrants) {
  const std::size_t dim = GetParam();
  HaltonSequence seq(dim, 101);
  // Every dimension should see values in both halves within 64 points.
  std::vector<bool> low(dim, false), high(dim, false);
  for (int i = 0; i < 64; ++i) {
    const auto p = seq.next();
    for (std::size_t d = 0; d < dim; ++d) {
      (p[d] < 0.5 ? low[d] : high[d]) = true;
    }
  }
  for (std::size_t d = 0; d < dim; ++d) {
    EXPECT_TRUE(low[d]) << "dimension " << d;
    EXPECT_TRUE(high[d]) << "dimension " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HaltonDimSweep,
                         ::testing::Values<std::size_t>(1, 2, 5, 10, 20, 40));

TEST(Halton, DigitCountersMatchTheDivisionForm) {
  // Bit for bit, for every dimension up to 40 and indices 1..10^4.
  for (const std::size_t dim : {1U, 2U, 7U, 24U, 40U}) {
    HaltonSequence seq(dim, 0xAB + dim);
    testing::ReferenceHalton reference(dim, 0xAB + dim);
    for (int i = 1; i <= 10000; ++i) {
      ASSERT_EQ(seq.next(), reference.next()) << "dim " << dim << " index " << i;
    }
  }
}

TEST(Halton, CoordinatePeeksWithoutAdvancing) {
  HaltonSequence a(6, 5);
  HaltonSequence b(6, 5);
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> point = a.next();
    for (std::size_t d = 0; d < 6; ++d) {
      ASSERT_EQ(b.coordinate(d), point[d]);
      ASSERT_EQ(b.coordinate(d), point[d]);
    }
    b.advance();
  }
}

}  // namespace
}  // namespace pamo
