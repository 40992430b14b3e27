// Stationary covariance kernels with ARD lengthscales.
//
// Hyperparameters are stored in log space so marginal-likelihood
// optimization is unconstrained-ish (we still box them to sane ranges).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/contracts.hpp"
#include "la/matrix.hpp"

namespace pamo::gp {

enum class KernelType {
  kRbf,       // squared exponential
  kMatern52,  // Matérn ν = 5/2
};

/// Kernel hyperparameters (all in natural log space).
struct KernelParams {
  std::vector<double> log_lengthscales;  // one per input dimension (ARD)
  double log_signal_var = 0.0;           // log σ_f²
  double log_noise_var = -4.0;           // log σ_n² (on standardized targets)

  [[nodiscard]] std::size_t dim() const { return log_lengthscales.size(); }

  /// Flatten to a vector for the optimizer: [ls..., signal, noise].
  [[nodiscard]] std::vector<double> pack() const;
  static KernelParams unpack(const std::vector<double>& packed,
                             std::size_t dim);
};

/// The kernel as a function of the scaled squared distance
/// r² = Σ_i s_i², s_i = (x_i − z_i)/ℓ_i: the one body every kernel entry
/// goes through. With `dk_dlog_ls` set it also writes the factor g with
/// ∂k/∂log ℓ_i = g·s_i² (σ_f²·(5/3)(1+√5r)e^{−√5r} for Matérn-5/2, k for
/// RBF), which needs no division by r.
inline double kernel_of_r2(KernelType type, double signal_var, double r2,
                           double* dk_dlog_ls = nullptr) {
  PAMO_EXPECTS(!(r2 < 0.0), "a squared distance is never negative");
  switch (type) {
    case KernelType::kRbf: {
      const double k = signal_var * std::exp(-0.5 * r2);
      if (dk_dlog_ls != nullptr) *dk_dlog_ls = k;
      return k;
    }
    case KernelType::kMatern52: {
      const double r = std::sqrt(r2);
      const double sqrt5_r = 2.2360679774997896 * r;
      const double decay = std::exp(-sqrt5_r);
      if (dk_dlog_ls != nullptr) {
        *dk_dlog_ls = signal_var * (5.0 / 3.0) * (1.0 + sqrt5_r) * decay;
      }
      return signal_var * (1.0 + sqrt5_r + 5.0 / 3.0 * r2) * decay;
    }
  }
  return 0.0;  // unreachable
}

/// k(·, ·) for one (type, params) pair with the loop-invariant work done
/// once: σ_f² and the inverse lengthscales are exponentiated here, not per
/// kernel pair. Entries are bit-identical to exponentiating per pair — the
/// per-dimension arithmetic (x_i − z_i)·ℓ_i⁻¹ and its order are unchanged.
class KernelEvaluator {
 public:
  KernelEvaluator(KernelType type, const KernelParams& params);

  [[nodiscard]] std::size_t dim() const { return inv_lengthscales_.size(); }
  [[nodiscard]] double signal_var() const { return signal_var_; }

  /// k(x, z) without noise. Both inputs must have dim() entries.
  [[nodiscard]] double operator()(const std::vector<double>& x,
                                  const std::vector<double>& z) const;

  /// k(x, z) over dim() entries read in place (no size check). The one
  /// body of the kernel: the vector form calls it after checking sizes.
  [[nodiscard]] double operator()(const double* x, const double* z) const {
    // Scaled squared distance Σ ((x_i - z_i) / ℓ_i)².
    double r2 = 0.0;
    for (std::size_t i = 0; i < inv_lengthscales_.size(); ++i) {
      const double d = (x[i] - z[i]) * inv_lengthscales_[i];
      r2 += d * d;
    }
    return kernel_of_r2(type_, signal_var_, r2);
  }

 private:
  KernelType type_;
  double signal_var_;                      // σ_f²
  std::vector<double> inv_lengthscales_;   // ℓ_i⁻¹
};

/// k(x, z) for a single pair (without noise).
double kernel_value(KernelType type, const KernelParams& params,
                    const std::vector<double>& x, const std::vector<double>& z);

/// Symmetric Gram matrix K(X, X) (without noise on the diagonal).
la::Matrix kernel_matrix(KernelType type, const KernelParams& params,
                         const std::vector<std::vector<double>>& x);

/// Cross covariance K(X, Z), rows indexed by X.
la::Matrix kernel_cross(KernelType type, const KernelParams& params,
                        const std::vector<std::vector<double>>& x,
                        const std::vector<std::vector<double>>& z);

}  // namespace pamo::gp
