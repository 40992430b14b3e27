#include "common/normal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace pamo {
namespace {

TEST(Normal, PdfKnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-14);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-14);
  EXPECT_DOUBLE_EQ(normal_pdf(1.0), normal_pdf(-1.0));
}

TEST(Normal, CdfKnownValues) {
  EXPECT_DOUBLE_EQ(normal_cdf(0.0), 0.5);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963984540054), 0.025, 1e-9);
}

TEST(Normal, CdfSymmetry) {
  for (double z : {0.1, 0.7, 1.3, 2.9, 4.4}) {
    EXPECT_NEAR(normal_cdf(z) + normal_cdf(-z), 1.0, 1e-14);
  }
}

TEST(Normal, LogCdfMatchesDirectInBody) {
  for (double z : {-6.0, -3.0, -1.0, 0.0, 1.0, 3.0}) {
    EXPECT_NEAR(log_normal_cdf(z), std::log(normal_cdf(z)), 1e-9)
        << "z = " << z;
  }
}

TEST(Normal, LogCdfFiniteDeepInTail) {
  // Direct log(Φ(z)) underflows to -inf near z = -39; the asymptotic
  // branch must stay finite and monotone.
  double prev = log_normal_cdf(-8.5);
  for (double z = -9.0; z > -60.0; z -= 1.0) {
    const double value = log_normal_cdf(z);
    EXPECT_TRUE(std::isfinite(value)) << "z = " << z;
    EXPECT_LT(value, prev) << "z = " << z;
    prev = value;
  }
}

TEST(Normal, LogCdfContinuousAtSwitch) {
  EXPECT_NEAR(log_normal_cdf(-7.999), log_normal_cdf(-8.001), 2e-2);
}

TEST(Normal, HazardMatchesDirectInBody) {
  for (double z : {-6.0, -2.0, 0.0, 2.0}) {
    EXPECT_NEAR(normal_hazard(z), normal_pdf(z) / normal_cdf(z), 1e-6)
        << "z = " << z;
  }
}

TEST(Normal, HazardAsymptoteDeepInTail) {
  // φ/Φ ~ -z for z → -inf.
  for (double z : {-10.0, -20.0, -40.0}) {
    const double h = normal_hazard(z);
    EXPECT_TRUE(std::isfinite(h));
    EXPECT_NEAR(h, -z, -z * 0.02) << "z = " << z;
    EXPECT_GT(h, -z) << "hazard must exceed |z| in the left tail";
  }
}

TEST(Normal, QuantileInvertsCdf) {
  // Log-spaced lower-tail masses from 1e-12 up to about 0.45, a linear
  // central band, and the mirror images 1 − p of the lower tail.
  std::vector<double> probs;
  for (int k = 0; k <= 233; ++k) {
    probs.push_back(1e-12 * std::pow(10.0, k / 20.0));
  }
  for (int k = 1; k < 20; ++k) probs.push_back(0.45 + 0.005 * k);
  for (std::size_t i = 0; i <= 233; ++i) probs.push_back(1.0 - probs[i]);
  std::sort(probs.begin(), probs.end());
  ASSERT_EQ(probs.front(), 1e-12);  // pamo-analyze: allow(float-eq)

  double prev = -std::numeric_limits<double>::infinity();
  for (const double p : probs) {
    const double z = normal_quantile(p);
    ASSERT_TRUE(std::isfinite(z)) << "p = " << p;
    EXPECT_GT(z, prev) << "not monotone at p = " << p;
    prev = z;
    // Judge the round trip on the smaller tail mass, so both tails are
    // held to relative accuracy: Φ(−z) = 1 − Φ(z) without cancellation.
    const double tail = p < 0.5 ? p : 1.0 - p;
    const double back = p < 0.5 ? normal_cdf(z) : normal_cdf(-z);
    EXPECT_NEAR(back, tail, 1e-7 * tail) << "p = " << p;
    // Antisymmetry, exact whenever 1 − p is (always for p ≥ ½).
    if (p >= 0.5) {
      EXPECT_EQ(normal_quantile(1.0 - p), -z)  // pamo-analyze: allow(float-eq)
          << "p = " << p;
    }
  }
  EXPECT_EQ(normal_quantile(0.5), 0.0);  // pamo-analyze: allow(float-eq)
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(normal_quantile(1e-12), -7.034483825301131, 1e-7);
}

}  // namespace
}  // namespace pamo
