#include "pref/preference_gp.hpp"

#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/normal.hpp"
#include "obs/obs.hpp"

namespace pamo::pref {

namespace {
constexpr double kSqrt2 = 1.41421356237309504880;
constexpr double kKernelJitter = 1e-8;
}  // namespace

PreferenceGp::PreferenceGp(PreferenceGpOptions options)
    : options_(options) {
  PAMO_CHECK(options_.lambda > 0, "probit noise lambda must be positive");
  PAMO_CHECK(options_.lengthscale > 0, "lengthscale must be positive");
}

void PreferenceGp::fit(std::vector<std::vector<double>> points,
                       std::vector<ComparisonPair> pairs) {
  PAMO_CHECK(!points.empty(), "PreferenceGp requires at least one point");
  const std::size_t dim = points.front().size();
  for (const auto& p : points) {
    PAMO_CHECK(p.size() == dim, "ragged outcome-vector set");
  }
  for (const auto& [winner, loser] : pairs) {
    PAMO_CHECK(winner < points.size() && loser < points.size(),
               "comparison index out of range");
    PAMO_CHECK(winner != loser, "self-comparison");
  }
  points_ = std::move(points);
  pairs_ = std::move(pairs);

  params_.log_lengthscales.assign(dim, std::log(options_.lengthscale));
  params_.log_signal_var = std::log(options_.signal_var);
  params_.log_noise_var = std::log(kKernelJitter);
  kernel_.emplace(options_.kernel, params_);

  g_map_.assign(points_.size(), 0.0);
  laplace();
}

void PreferenceGp::update(const std::vector<std::vector<double>>& points,
                          const std::vector<ComparisonPair>& pairs) {
  PAMO_CHECK(is_fit(), "update before fit");
  const std::size_t dim = points_.front().size();
  for (const auto& p : points) {
    PAMO_CHECK(p.size() == dim, "outcome-vector dimension mismatch");
    points_.push_back(p);
  }
  for (const auto& [winner, loser] : pairs) {
    PAMO_CHECK(winner < points_.size() && loser < points_.size(),
               "comparison index out of range");
    pairs_.push_back({winner, loser});
  }
  g_map_.resize(points_.size(), 0.0);  // warm start; new latents at 0
  laplace();
}

void PreferenceGp::compute_pair_weights() {
  const std::size_t n = points_.size();
  const double inv_noise = 1.0 / (kSqrt2 * options_.lambda);
  pair_inv_noise_.assign(pairs_.size(), inv_noise);
  num_inconsistent_ = 0;
  if (!options_.downweight_inconsistent || pairs_.empty()) return;

  // Directed comparison graph: edge w→l for every asserted w ≻ l.
  std::vector<std::uint8_t> edge(n * n, 0);
  for (const auto& [winner, loser] : pairs_) edge[winner * n + loser] = 1;
  for (std::size_t p = 0; p < pairs_.size(); ++p) {
    const auto [winner, loser] = pairs_[p];
    // Direct contradiction (l ≻ w also asserted) or an intransitive
    // triple l ≻ c ≻ w that implies the opposite ordering.
    bool inconsistent = edge[loser * n + winner] != 0;
    for (std::size_t c = 0; !inconsistent && c < n; ++c) {
      inconsistent = edge[loser * n + c] != 0 && edge[c * n + winner] != 0;
    }
    if (inconsistent) {
      pair_inv_noise_[p] = inv_noise / options_.inconsistency_penalty;
      ++num_inconsistent_;
    }
  }
}

void PreferenceGp::laplace() {
  PAMO_SPAN("pref.fit");
  PAMO_COUNT("pref.fits", 1);
  const std::size_t n = points_.size();
  compute_pair_weights();

  la::Matrix k = gp::kernel_matrix(options_.kernel, params_, points_);
  k.add_diagonal(kKernelJitter);
  k_chol_.emplace(k);
  // K is fixed for the whole fit: solve K X = I once, for every Newton
  // iteration's A = W + K⁻¹ and for the final B.
  const la::Matrix kinv = k_chol_->solve(la::Matrix::identity(n));

  // Negative log posterior (up to constants): ψ(g) = -Σ logΦ(z_v) + ½gᵀK⁻¹g.
  auto psi = [&](const la::Vector& g) {
    double nll = 0.0;
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      const auto [winner, loser] = pairs_[p];
      const double z = (g[winner] - g[loser]) * pair_inv_noise_[p];
      nll -= log_normal_cdf(z);
    }
    const la::Vector kinv_g = k_chol_->solve(g);
    return nll + 0.5 * la::dot(g, kinv_g);
  };

  double current_psi = psi(g_map_);
  for (std::size_t iter = 0; iter < options_.max_newton_iters; ++iter) {
    // Gradient of the log likelihood (b) and its negative Hessian (W).
    la::Vector b(n, 0.0);
    w_ = la::Matrix(n, n, 0.0);
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      const auto [winner, loser] = pairs_[p];
      const double inv_noise = pair_inv_noise_[p];
      const double z = (g_map_[winner] - g_map_[loser]) * inv_noise;
      const double h = normal_hazard(z);
      const double grad = h * inv_noise;
      b[winner] += grad;
      b[loser] -= grad;
      const double kappa = h * (z + h) * inv_noise * inv_noise;
      w_(winner, winner) += kappa;
      w_(loser, loser) += kappa;
      w_(winner, loser) -= kappa;
      w_(loser, winner) -= kappa;
    }

    // Newton target: (K⁻¹ + W) g⁺ = W g + b.
    la::Matrix a = w_;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) += kinv(r, c);
    }
    la::Vector rhs = la::matvec(w_, g_map_);
    la::axpy(1.0, b, rhs);
    const la::Cholesky a_chol(a, /*max_jitter=*/1e-6);
    la::Vector g_new = a_chol.solve(rhs);

    // Damped step (ψ is convex; damping only guards numerics).
    la::Vector direction(n);
    for (std::size_t i = 0; i < n; ++i) direction[i] = g_new[i] - g_map_[i];
    double step = 1.0;
    double next_psi = 0.0;
    la::Vector candidate(n);
    for (int halvings = 0; halvings < 20; ++halvings) {
      for (std::size_t i = 0; i < n; ++i) {
        candidate[i] = g_map_[i] + step * direction[i];
      }
      next_psi = psi(candidate);
      if (next_psi <= current_psi + 1e-12) break;
      step *= 0.5;
    }
    const double improvement = current_psi - next_psi;
    g_map_ = candidate;
    current_psi = next_psi;
    if (improvement < options_.newton_tol && iter > 0) break;
  }

  // Final Hessian at the MAP (for the predictive covariance).
  w_ = la::Matrix(n, n, 0.0);
  for (std::size_t p = 0; p < pairs_.size(); ++p) {
    const auto [winner, loser] = pairs_[p];
    const double inv_noise = pair_inv_noise_[p];
    const double z = (g_map_[winner] - g_map_[loser]) * inv_noise;
    const double h = normal_hazard(z);
    const double kappa = h * (z + h) * inv_noise * inv_noise;
    w_(winner, winner) += kappa;
    w_(loser, loser) += kappa;
    w_(winner, loser) -= kappa;
    w_(loser, winner) -= kappa;
  }
  la::Matrix b_mat = w_;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b_mat(r, c) += kinv(r, c);
  }
  b_chol_.emplace(b_mat, /*max_jitter=*/1e-6);
  kinv_g_ = k_chol_->solve(g_map_);
}

gp::Posterior PreferenceGp::posterior(
    const std::vector<std::vector<double>>& y) const {
  PAMO_CHECK(is_fit(), "posterior before fit");
  const std::size_t m = y.size();
  PAMO_CHECK(m > 0, "posterior over an empty set");
  for (const auto& p : y) {
    PAMO_CHECK(p.size() == points_.front().size(),
               "outcome-vector dimension mismatch");
  }
  const la::Matrix k_cross =
      gp::kernel_cross(options_.kernel, params_, y, points_);  // m × n
  const la::Matrix k_test = gp::kernel_matrix(options_.kernel, params_, y);

  gp::Posterior post;
  post.mean.resize(m);
  const std::size_t n = points_.size();
  // U = K⁻¹ K*ᵀ, column c = K⁻¹ k*(y_c).
  la::Matrix u(n, m);
  la::Vector col(n);
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = k_cross(c, r);
    const la::Vector sol = k_chol_->solve(col);
    for (std::size_t r = 0; r < n; ++r) u(r, c) = sol[r];
    post.mean[c] = la::dot(col, kinv_g_);
  }
  // V = B⁻¹ U with B = K⁻¹ + W.
  la::Matrix v(n, m);
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = u(r, c);
    const la::Vector sol = b_chol_->solve(col);
    for (std::size_t r = 0; r < n; ++r) v(r, c) = sol[r];
  }
  // cov = K** − K* K⁻¹ K*ᵀ + Uᵀ B⁻¹ U.
  post.covariance = la::Matrix(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      double explained = 0.0;
      double recovered = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        explained += k_cross(i, r) * u(r, j);
        recovered += u(r, i) * v(r, j);
      }
      const double value = k_test(i, j) - explained + recovered;
      post.covariance(i, j) = value;
      post.covariance(j, i) = value;
    }
  }
  return post;
}

double PreferenceGp::utility_mean(const std::vector<double>& y) const {
  PAMO_CHECK(is_fit(), "utility_mean before fit");
  PAMO_CHECK(y.size() == kernel_->dim(), "outcome-vector dimension mismatch");
  // k*(y)ᵀ K⁻¹g, accumulated in la::dot's order without materializing k*.
  double mean = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    mean += (*kernel_)(y, points_[i]) * kinv_g_[i];
  }
  return mean;
}

la::Matrix PreferenceGp::sample_joint(const std::vector<std::vector<double>>& y,
                                      std::size_t num_samples,
                                      Rng& rng) const {
  const gp::Posterior post = posterior(y);
  const std::size_t m = y.size();
  const la::Cholesky chol(post.covariance, /*max_jitter=*/1e-2);
  la::Matrix samples(num_samples, m);
  la::Vector z(m);
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (auto& zi : z) zi = rng.normal();
    for (std::size_t i = 0; i < m; ++i) {
      double sum = post.mean[i];
      for (std::size_t j = 0; j <= i; ++j) sum += chol.lower()(i, j) * z[j];
      samples(s, i) = sum;
    }
  }
  return samples;
}

}  // namespace pamo::pref
