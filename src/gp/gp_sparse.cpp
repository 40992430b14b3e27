// GpBackend::kInducing — the Deterministic Training Conditional (DTC)
// inducing-point approximation behind the GpRegressor interface.
//
// The exact GP factorizes the n×n training covariance (O(n³)); at fleet
// scale n grows with the stream count and that ceiling breaks. DTC keeps
// an m-point inducing set Z (a strided subset of the training rows) and
// works with
//
//   B = Kmm + Kmn D⁻¹ Knm,   D = σ²·diag(noise_scale)
//   mean(x*) = k*ₘ B⁻¹ Kmn D⁻¹ y
//   cov(X*)  = K** − K*ₘ Kmm⁻¹ Kₘ* + K*ₘ B⁻¹ Kₘ*
//
// so every solve is m-bounded: O(m²n) from scratch, O(m² + mn) per
// incremental update (a rank-one cholupdate of B per new row plus a
// re-solve of the m-vector b against the re-standardized targets). With
// m == n, DTC coincides analytically with the exact posterior — the
// equivalence anchor tests/gp/test_gp_sparse.cpp pins numerically.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "gp/gp_regressor.hpp"
#include "obs/obs.hpp"

namespace pamo::gp {

namespace {

/// The exact backend's jitter ladder, reused so a near-singular inducing
/// covariance degrades to a smoother posterior instead of a dead learner.
constexpr double kJitterLadder[] = {1e-4, 1e-2, 1.0};
constexpr std::size_t kLadderAttempts = 3;

la::Cholesky factor_with_ladder(const la::Matrix& a,
                                GpFitDiagnostics& diagnostics) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      la::Cholesky chol(a, kJitterLadder[attempt]);
      diagnostics.fit_jitter = std::max(diagnostics.fit_jitter, chol.jitter());
      return chol;
    } catch (const Error&) {
      if (attempt + 1 >= kLadderAttempts) throw;
      ++diagnostics.cholesky_recoveries;
    }
  }
}

}  // namespace

void GpRegressor::solve_sparse() {
  PAMO_SPAN("gp.solve_sparse");
  PAMO_COUNT("gp.sparse_solves", 1);
  const std::size_t n = x_.size();
  const std::size_t m =
      std::min(std::max<std::size_t>(2, options_.inducing_points), n);
  SparseState s;
  // Strided inducing selection over the scaled rows — the mle_subsample
  // idiom, deterministic and independent of worker count.
  s.z.reserve(m);
  const double stride = static_cast<double>(n) / static_cast<double>(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto idx =
        static_cast<std::size_t>(static_cast<double>(i) * stride);
    s.z.push_back(x_[idx]);
  }
  la::Matrix kmm = kernel_matrix(options_.kernel, params_, s.z);
  s.lm = factor_with_ladder(kmm, diagnostics_);
  s.kmn = kernel_cross(options_.kernel, params_, s.z, x_);

  // B = (Kmm + jitter·I) + Kmn D⁻¹ Knm, accumulated column-by-column in a
  // fixed order (training-row ascending) so the solve is deterministic.
  la::Matrix b_mat = std::move(kmm);
  b_mat.add_diagonal(s.lm->jitter());
  const double noise = std::exp(params_.log_noise_var);
  s.b = la::Vector(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_d = 1.0 / (noise * noise_scale_[i]);
    for (std::size_t r = 0; r < m; ++r) {
      const double kri = s.kmn(r, i) * inv_d;
      for (std::size_t c = 0; c < m; ++c) {
        b_mat(r, c) += kri * s.kmn(c, i);
      }
      s.b[r] += kri * y_[i];
    }
  }
  s.lb = factor_with_ladder(b_mat, diagnostics_);
  s.alpha = s.lb->solve(s.b);

  sparse_ = std::move(s);
  // Exactly one backend owns the solved state.
  chol_.reset();
  alpha_.clear();
  ++factor_epoch_;  // any cached posterior workspace is now stale
  PAMO_ENSURES(sparse_->kmn.cols() == n && sparse_->alpha.size() == m,
               "sparse solve covers every training row through m inducing "
               "points");
}

bool GpRegressor::try_sparse_update(std::size_t new_rows) {
  if (!sparse_.has_value() || !sparse_->lb.has_value()) return false;
  PAMO_SPAN("gp.sparse_update");
  SparseState& s = *sparse_;
  const std::size_t m = s.z.size();
  const std::size_t n_old = x_.size();
  const double noise = std::exp(params_.log_noise_var);

  // Fold each new row into B with a rank-one factor update: B += k kᵀ/σ².
  // Fresh rows always carry noise_scale 1.
  la::Matrix grown(m, n_old + new_rows, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t i = 0; i < n_old; ++i) grown(r, i) = s.kmn(r, i);
  }
  const double inv_sigma = 1.0 / std::sqrt(noise);
  const KernelEvaluator k_eval(options_.kernel, params_);
  for (std::size_t j = 0; j < new_rows; ++j) {
    const std::vector<double> scaled = scale_input(x_raw_[n_old + j]);
    la::Vector k(m);
    for (std::size_t r = 0; r < m; ++r) {
      k[r] = k_eval(s.z[r], scaled);
      grown(r, n_old + j) = k[r];
    }
    for (double& v : k) v *= inv_sigma;
    if (!s.lb->rank_one_update(k)) return false;
    x_.push_back(std::move(scaled));
  }
  s.kmn = std::move(grown);
  noise_scale_.insert(noise_scale_.end(), new_rows, 1.0);

  // Re-standardize the targets over the grown set (the rebuild arithmetic)
  // and re-solve the m-dimensional system: O(mn) + O(m²).
  const std::size_t n = x_.size();
  y_mean_ = mean_of(y_raw_);
  y_std_ = stddev_of(y_raw_);
  if (y_std_ < 1e-12) y_std_ = 1.0;  // constant targets: keep scale sane
  y_.resize(n);
  for (std::size_t i = 0; i < n; ++i) y_[i] = (y_raw_[i] - y_mean_) / y_std_;
  s.b = la::Vector(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_d = 1.0 / (noise * noise_scale_[i]);
    for (std::size_t r = 0; r < m; ++r) {
      s.b[r] += s.kmn(r, i) * inv_d * y_[i];
    }
  }
  s.alpha = s.lb->solve(s.b);
  return true;
}

Posterior GpRegressor::sparse_posterior(
    const std::vector<std::vector<double>>& xs) const {
  PAMO_EXPECTS(sparse_.has_value(), "sparse_posterior without sparse state");
  const SparseState& s = *sparse_;
  const std::size_t q = xs.size();
  const la::Matrix kzq = kernel_cross(options_.kernel, params_, s.z, xs);
  const la::Matrix k_test = kernel_matrix(options_.kernel, params_, xs);
  const la::Matrix v1 = s.lm->solve_lower(kzq);
  const la::Matrix v2 = s.lb->solve_lower(kzq);
  const la::Matrix q1 = la::matmul_blocked(v1.transposed(), v1);
  const la::Matrix q2 = la::matmul_blocked(v2.transposed(), v2);

  Posterior post;
  post.mean.resize(q);
  const std::size_t m = s.z.size();
  for (std::size_t c = 0; c < q; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < m; ++r) sum += kzq(r, c) * s.alpha[r];
    post.mean[c] = y_mean_ + y_std_ * sum;
  }
  post.covariance = la::Matrix(q, q);
  const double scale2 = y_std_ * y_std_;
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      post.covariance(i, j) =
          (k_test(i, j) - q1(i, j) + q2(i, j)) * scale2;
    }
  }
  return post;
}

}  // namespace pamo::gp
