// Standard normal pdf/cdf/quantile helpers (shared by the probit
// preference likelihood, the expected-improvement acquisition functions
// and the Latin-hypercube scenario draws).
#pragma once

namespace pamo {

/// Standard normal density φ(z).
double normal_pdf(double z);

/// Standard normal CDF Φ(z) via erfc (accurate in both tails).
double normal_cdf(double z);

/// log Φ(z), numerically stable for z << 0 (asymptotic expansion).
double log_normal_cdf(double z);

/// Hazard ratio φ(z)/Φ(z), stable for z << 0.
double normal_hazard(double z);

/// Inverse CDF Φ⁻¹(p) for p strictly inside (0, 1), by Acklam's rational
/// approximation (relative error below 1.2e-9). Exactly antisymmetric:
/// normal_quantile(1 − p) == −normal_quantile(p) whenever 1 − p is exact.
double normal_quantile(double p);

}  // namespace pamo
