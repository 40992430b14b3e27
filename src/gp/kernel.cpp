#include "gp/kernel.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace pamo::gp {

std::vector<double> KernelParams::pack() const {
  std::vector<double> packed = log_lengthscales;
  packed.push_back(log_signal_var);
  packed.push_back(log_noise_var);
  return packed;
}

KernelParams KernelParams::unpack(const std::vector<double>& packed,
                                  std::size_t dim) {
  PAMO_CHECK(packed.size() == dim + 2, "packed hyperparameter size mismatch");
  KernelParams p;
  p.log_lengthscales.assign(packed.begin(),
                            packed.begin() + static_cast<long>(dim));
  p.log_signal_var = packed[dim];
  p.log_noise_var = packed[dim + 1];
  return p;
}

namespace {

double kernel_from_sqdist(KernelType type, double sf2, double r2) {
  switch (type) {
    case KernelType::kRbf:
      return sf2 * std::exp(-0.5 * r2);
    case KernelType::kMatern52: {
      const double r = std::sqrt(r2);
      const double sqrt5_r = 2.2360679774997896 * r;
      return sf2 * (1.0 + sqrt5_r + 5.0 / 3.0 * r2) * std::exp(-sqrt5_r);
    }
  }
  return 0.0;  // unreachable
}

}  // namespace

KernelEvaluator::KernelEvaluator(KernelType type, const KernelParams& params)
    : type_(type), signal_var_(std::exp(params.log_signal_var)) {
  inv_lengthscales_.reserve(params.dim());
  for (const double log_ls : params.log_lengthscales) {
    inv_lengthscales_.push_back(std::exp(-log_ls));
  }
}

double KernelEvaluator::operator()(const std::vector<double>& x,
                                   const std::vector<double>& z) const {
  PAMO_EXPECTS(x.size() == dim() && z.size() == dim(),
               "kernel input dimension mismatch");
  // Scaled squared distance Σ ((x_i - z_i) / ℓ_i)².
  double r2 = 0.0;
  for (std::size_t i = 0; i < inv_lengthscales_.size(); ++i) {
    const double d = (x[i] - z[i]) * inv_lengthscales_[i];
    r2 += d * d;
  }
  return kernel_from_sqdist(type_, signal_var_, r2);
}

double kernel_value(KernelType type, const KernelParams& params,
                    const std::vector<double>& x,
                    const std::vector<double>& z) {
  PAMO_CHECK(x.size() == params.dim() && z.size() == params.dim(),
             "kernel input dimension mismatch");
  return KernelEvaluator(type, params)(x, z);
}

la::Matrix kernel_matrix(KernelType type, const KernelParams& params,
                         const std::vector<std::vector<double>>& x) {
  for (const auto& row : x) {
    PAMO_CHECK(row.size() == params.dim(), "kernel input dimension mismatch");
  }
  const KernelEvaluator k_eval(type, params);
  const std::size_t n = x.size();
  la::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) = k_eval.signal_var();
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = k_eval(x[i], x[j]);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

la::Matrix kernel_cross(KernelType type, const KernelParams& params,
                        const std::vector<std::vector<double>>& x,
                        const std::vector<std::vector<double>>& z) {
  // The evaluator reads dim() entries from each side of every pair.
  for (const auto* rows : {&x, &z}) {
    for (const auto& row : *rows) {
      PAMO_CHECK(row.size() == params.dim(), "kernel input dimension mismatch");
    }
  }
  const KernelEvaluator k_eval(type, params);
  la::Matrix k(x.size(), z.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = 0; j < z.size(); ++j) k(i, j) = k_eval(x[i], z[j]);
  }
  return k;
}

}  // namespace pamo::gp
