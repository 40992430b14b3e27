#include "common/normal.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace pamo {

namespace {
constexpr double kInvSqrt2 = 0.70710678118654752440;
constexpr double kInvSqrt2Pi = 0.39894228040143267794;
}  // namespace

double normal_pdf(double z) { return kInvSqrt2Pi * std::exp(-0.5 * z * z); }

double normal_cdf(double z) { return 0.5 * std::erfc(-z * kInvSqrt2); }

double log_normal_cdf(double z) {
  if (z > -8.0) {
    return std::log(normal_cdf(z));
  }
  // Asymptotic: Φ(z) ≈ φ(z)/|z| · (1 - 1/z² + 3/z⁴) for z << 0.
  const double z2 = z * z;
  const double series = 1.0 - 1.0 / z2 + 3.0 / (z2 * z2);
  return -0.5 * z2 - 0.5 * std::log(2.0 * M_PI) - std::log(-z) +
         std::log(series);
}

double normal_hazard(double z) {
  if (z > -8.0) {
    return normal_pdf(z) / normal_cdf(z);
  }
  // φ/Φ → -z + 1/(-z) · (1 + o(1)) for z << 0; three-term continued fraction.
  const double t = -z;
  return t + 1.0 / (t + 2.0 / (t + 3.0 / t));
}

double normal_quantile(double p) {
  PAMO_EXPECTS(p > 0.0 && p < 1.0, "normal_quantile needs p in (0, 1)");
  // Acklam's coefficients: a rational function of (p − ½)² in the central
  // region and of √(−2 log p) in each tail.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  // The upper tail is the lower tail's mirror image through 1 − p.
  const double tail = p < 0.5 ? p : 1.0 - p;
  if (tail < 0.02425) {
    const double q = std::sqrt(-2.0 * std::log(tail));
    const double x =
        (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    return p < 0.5 ? x : -x;
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace pamo
