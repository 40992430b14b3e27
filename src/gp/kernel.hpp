// Stationary covariance kernels with ARD lengthscales.
//
// Hyperparameters are stored in log space so marginal-likelihood
// optimization is unconstrained-ish (we still box them to sane ranges).
#pragma once

#include <cstddef>
#include <vector>

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
