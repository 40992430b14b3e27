#include "gp/gp_regressor.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "opt/nelder_mead.hpp"

namespace pamo::gp {

namespace {

constexpr double kLog2Pi = 1.8378770664093454835606594728112;

/// FNV-1a over the bit patterns of a query set; fingerprints the posterior
/// workspace (backed by an exact row comparison, so collisions only cost a
/// recompute, never a wrong reuse).
std::uint64_t fingerprint_rows(const std::vector<std::vector<double>>& xs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  mix(xs.size());
  for (const auto& row : xs) {
    for (const double d : row) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

}  // namespace

GpRegressor::GpRegressor(GpOptions options) : options_(std::move(options)) {}

std::vector<double> GpRegressor::scale_input(
    const std::vector<double>& x) const {
  PAMO_CHECK(x.size() == dim_, "input dimension mismatch");
  std::vector<double> scaled(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    const double width = x_hi_[i] - x_lo_[i];
    scaled[i] = width > 0 ? (x[i] - x_lo_[i]) / width : 0.0;
  }
  return scaled;
}

void GpRegressor::sanitize(std::vector<std::vector<double>>& x,
                           std::vector<double>& y) {
  auto row_finite = [](const std::vector<double>& row, double yi) {
    if (!std::isfinite(yi)) return false;
    for (const double v : row) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  };
  if (!options_.reject_nonfinite) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      PAMO_CHECK(row_finite(x[i], y[i]),
                 "non-finite observation (NaN/Inf) in GP training data; set "
                 "GpOptions::reject_nonfinite to drop such rows");
    }
    return;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (row_finite(x[i], y[i])) {
      if (kept != i) {
        x[kept] = std::move(x[i]);
        y[kept] = y[i];
      }
      ++kept;
    } else {
      ++diagnostics_.rows_rejected;
    }
  }
  x.resize(kept);
  y.resize(kept);
}

void GpRegressor::fit(std::vector<std::vector<double>> x,
                      std::vector<double> y) {
  PAMO_SPAN("gp.fit");
  PAMO_COUNT("gp.fits", 1);
  PAMO_CHECK(x.size() == y.size(), "x/y size mismatch");
  diagnostics_ = {};
  drift_cusum_ = 0.0;
  noise_scale_.clear();
  sanitize(x, y);
  PAMO_CHECK(x.size() >= 2, "GP fit requires at least 2 finite points");
  dim_ = x.front().size();
  PAMO_CHECK(dim_ >= 1, "GP inputs must have dimension >= 1");
  for (const auto& row : x) {
    PAMO_CHECK(row.size() == dim_, "ragged input matrix");
  }
  x_raw_ = std::move(x);
  y_raw_ = std::move(y);
  rebuild(/*optimize_hyperparams=*/!options_.fixed_params.has_value());
  PAMO_ENSURES(is_fit() && solved_over_all_rows(),
               "fit leaves a solved system over every kept row");
}

void GpRegressor::update(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y, bool reoptimize) {
  PAMO_SPAN("gp.update");
  PAMO_COUNT("gp.updates", 1);
  PAMO_CHECK(is_fit(), "update before fit");
  PAMO_CHECK(x.size() == y.size(), "x/y size mismatch");
  std::vector<std::vector<double>> xs = x;
  std::vector<double> ys = y;
  for (const auto& row : xs) {
    PAMO_CHECK(row.size() == dim_, "input dimension mismatch");
  }
  sanitize(xs, ys);
  const bool want_mle = reoptimize && !options_.fixed_params.has_value();
  if (xs.empty() && !want_mle) {
    // Nothing new and no re-optimization: the solved system already is
    // exactly what a rebuild over the unchanged data would produce.
    return;
  }
  // Drift detection: score incoming rows against the posterior *before*
  // they are incorporated. A fire down-weights every pre-existing row and
  // forces a re-solve (never an MLE refit), so a content shift gets
  // explained by fresh data instead of averaged into a stale posterior.
  bool drift_fired = false;
  if (options_.drift_cusum_h > 0.0 && !xs.empty()) {
    const double noise_raw =
        std::exp(params_.log_noise_var) * y_std_ * y_std_;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double mu = predict_mean(xs[i]);
      const double var = predict_var(xs[i]) + noise_raw;
      const double z = (ys[i] - mu) / std::sqrt(std::max(var, 1e-12));
      drift_cusum_ = std::max(
          0.0, drift_cusum_ + std::fabs(z) - options_.drift_cusum_k);
    }
    if (drift_cusum_ > options_.drift_cusum_h) {
      drift_fired = true;
      ++diagnostics_.drift_fires;
      for (double& scale : noise_scale_) {
        scale = std::min(options_.robust_inflation_cap,
                         scale * options_.drift_forget_inflation);
      }
      diagnostics_.drift_downweighted += noise_scale_.size();
      drift_cusum_ = 0.0;
    }
    diagnostics_.drift_score = drift_cusum_;
  }
  // An in-box batch leaves the min-max scaling of the old rows — and with
  // it every existing distinct input — unchanged, so without an MLE, a
  // drift fire, or robust reweighting (which re-solves over all rows) the
  // rebuild reduces to folding the new rows into the groups and
  // re-solving the distinct-row system.
  auto inside_box = [this](const std::vector<std::vector<double>>& rows) {
    for (const auto& row : rows) {
      for (std::size_t d = 0; d < dim_; ++d) {
        if (row[d] < x_lo_[d] || row[d] > x_hi_[d]) return false;
      }
    }
    return true;
  };
  const bool in_box_solve = options_.incremental && !want_mle &&
                            !drift_fired && !options_.robust_noise &&
                            !xs.empty() && inside_box(xs);
  const std::size_t new_rows = xs.size();
  const std::size_t first_new_row = x_raw_.size();
  for (auto& row : xs) x_raw_.push_back(std::move(row));
  y_raw_.insert(y_raw_.end(), ys.begin(), ys.end());
  noise_scale_.resize(x_raw_.size(), 1.0);  // fresh rows carry λ = 1
  if (in_box_solve) {
    const std::size_t first_new = x_.size();
    group_rows(first_new_row);
    if (x_.size() - first_new < new_rows) {
      // The batch repeats an input: a ≤ d-row re-solve, bit-identical to
      // rebuild(false) because the scaling and grouping are unchanged.
      solve_system();
      ++diagnostics_.incremental_updates;
    } else if (chol_->jitter() == 0.0 &&  // pamo-analyze: allow(float-eq)
               try_incremental_update(first_new)) {
      // All-new inputs on a jitter-free factor (the ladder restarts from
      // zero on a full rebuild): extend the factor in O(d²).
      ++diagnostics_.incremental_updates;
    } else {
      ++diagnostics_.incremental_fallbacks;
      rebuild(false);
    }
  } else if (drift_fired && !want_mle) {
    // Selective forgetting: the inflated noise scales must survive, so a
    // plain rebuild (which resets them) is off the table.
    refit_keep_noise();
  } else {
    if (options_.incremental && !want_mle) ++diagnostics_.incremental_fallbacks;
    rebuild(want_mle);
  }
  PAMO_ENSURES(solved_over_all_rows(),
               "update leaves a solved system over every kept row");
}

bool GpRegressor::try_incremental_update(std::size_t first_new) {
  aggregate_targets();
  // The new inputs' rows of K(x_, x_) + σ²·diag(1/W), entry for entry as
  // kernel_matrix and solve_system would form them.
  const std::size_t m = x_.size() - first_new;
  const KernelEvaluator k_eval(options_.kernel, params_);
  const double noise = std::exp(params_.log_noise_var);
  la::Matrix cross(m, first_new);
  la::Matrix corner(m, m);
  for (std::size_t r = 0; r < m; ++r) {
    const std::vector<double>& row = x_[first_new + r];
    for (std::size_t j = 0; j < first_new; ++j) {
      cross(r, j) = k_eval(row, x_[j]);
    }
    for (std::size_t c = 0; c < m; ++c) {
      corner(r, c) = k_eval(row, x_[first_new + c]);
    }
    corner(r, r) = k_eval.signal_var();
    corner(r, r) += noise / weight_[first_new + r];
  }
  if (!chol_->extend(cross, corner)) return false;
  // The targets were re-standardized over the grown set above — exactly
  // the rebuild arithmetic — so only the O(d²) re-solve against the
  // extended factor remains.
  alpha_ = chol_->solve(y_);
  return true;
}

void GpRegressor::rebuild(bool optimize_hyperparams) {
  PAMO_SPAN("gp.rebuild");
  PAMO_COUNT("gp.rebuilds", 1);
  const std::size_t n = x_raw_.size();
  derive_inputs();
  if (options_.drift_cusum_h > 0.0 && noise_scale_.size() <= n) {
    // Drift downweights are not re-derivable from the data (unlike robust
    // outlier weights), so a full rebuild keeps them and extends with 1.0
    // for the fresh rows. fit() clears the scales first: a refit is a
    // fresh start.
    noise_scale_.resize(n, 1.0);
  } else {
    noise_scale_.assign(n, 1.0);
  }

  if (options_.fixed_params.has_value()) {
    params_ = *options_.fixed_params;
    PAMO_CHECK(params_.dim() == dim_, "fixed hyperparameter dim mismatch");
  } else if (optimize_hyperparams || params_.dim() != dim_) {
    // MLE over [lengthscales, signal var, noise var] in log space.
    opt::Box box;
    const std::size_t p = dim_ + 2;
    box.lo.assign(p, 0.0);
    box.hi.assign(p, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      box.lo[i] = std::log(0.03);  // inputs are scaled to [0,1]
      box.hi[i] = std::log(10.0);
    }
    box.lo[dim_] = std::log(0.05);  // signal variance (standardized y)
    box.hi[dim_] = std::log(20.0);
    box.lo[dim_ + 1] = std::log(options_.min_noise_var);
    box.hi[dim_ + 1] = std::log(1.0);

    // Every row enters the likelihood, at the cost of a d-row solve.
    aggregate_targets();  // the standardization unit_moments() reads
    const GroupMoments moments = unit_moments();
    auto objective = [&](const std::vector<double>& packed) {
      return -lml(moments, KernelParams::unpack(packed, dim_));
    };

    KernelParams init;
    init.log_lengthscales.assign(dim_, std::log(0.3));
    init.log_signal_var = 0.0;
    init.log_noise_var = std::log(1e-2);
    const std::vector<double> x0 = init.pack();

    opt::NelderMeadOptions nm;
    nm.max_evals = options_.mle_max_evals;
    const opt::OptResult best = opt::multistart_minimize(
        objective, box, options_.mle_restarts, options_.seed, &x0, nm);
    params_ = KernelParams::unpack(best.x, dim_);
  }
  solve_and_reweight();
}

void GpRegressor::refit_keep_noise() {
  PAMO_SPAN("gp.refit_keep_noise");
  PAMO_CHECK(noise_scale_.size() == x_raw_.size(),
             "noise scales cover every row");
  derive_inputs();
  solve_and_reweight();
}

void GpRegressor::derive_inputs() {
  x_lo_.assign(dim_, std::numeric_limits<double>::max());
  x_hi_.assign(dim_, std::numeric_limits<double>::lowest());
  for (const auto& row : x_raw_) {
    for (std::size_t i = 0; i < dim_; ++i) {
      x_lo_[i] = std::min(x_lo_[i], row[i]);
      x_hi_[i] = std::max(x_hi_[i], row[i]);
    }
  }
  x_.clear();
  group_.clear();
  group_rows(0);
}

void GpRegressor::group_rows(std::size_t first) {
  group_.reserve(x_raw_.size());
  for (std::size_t j = first; j < x_raw_.size(); ++j) {
    std::vector<double> scaled = scale_input(x_raw_[j]);
    std::size_t i = 0;
    while (i < x_.size() && x_[i] != scaled) ++i;
    if (i == x_.size()) x_.push_back(std::move(scaled));
    group_.push_back(i);
  }
}

void GpRegressor::aggregate_targets() {
  y_mean_ = mean_of(y_raw_);
  y_std_ = stddev_of(y_raw_);
  if (y_std_ < 1e-12) y_std_ = 1.0;  // constant targets: keep scale sane
  weight_.assign(x_.size(), 0.0);
  y_.assign(x_.size(), 0.0);
  for (std::size_t j = 0; j < x_raw_.size(); ++j) {
    const double w = 1.0 / noise_scale_[j];
    weight_[group_[j]] += w;
    y_[group_[j]] += w * standardized(j);
  }
  for (std::size_t i = 0; i < x_.size(); ++i) y_[i] /= weight_[i];
}

void GpRegressor::solve_system() {
  aggregate_targets();
  la::Matrix k = kernel_matrix(options_.kernel, params_, x_);
  const double noise = std::exp(params_.log_noise_var);
  for (std::size_t i = 0; i < x_.size(); ++i) k(i, i) += noise / weight_[i];
  // Degrade to a wider jitter cap instead of throwing: a near-singular
  // training covariance (near-duplicate inputs, heavily inflated outlier
  // rows) yields a smoother posterior rather than a dead learner.
  constexpr double kJitterLadder[] = {1e-4, 1e-2, 1.0};
  constexpr std::size_t kAttempts = 3;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      chol_.emplace(k, kJitterLadder[attempt]);
      break;
    } catch (const Error&) {
      if (attempt + 1 >= kAttempts) throw;
      ++diagnostics_.cholesky_recoveries;
    }
  }
  diagnostics_.fit_jitter = std::max(diagnostics_.fit_jitter, chol_->jitter());
  alpha_ = chol_->solve(y_);
  ++factor_epoch_;  // full refactorization: cached V rows are now stale
}

void GpRegressor::solve_and_reweight() {
  solve_system();
  if (options_.robust_noise) {
    for (std::size_t round = 0; round < options_.robust_rounds; ++round) {
      if (!reweight_outliers()) break;
    }
  }
}

bool GpRegressor::reweight_outliers() {
  const double noise = std::exp(params_.log_noise_var);
  // Posterior mean at each distinct input: μ_i = ȳ_i − (σ²/W_i)·α_i.
  std::vector<double> mu(x_.size());
  for (std::size_t i = 0; i < x_.size(); ++i) {
    mu[i] = y_[i] - noise / weight_[i] * alpha_[i];
  }
  bool changed = false;
  for (std::size_t j = 0; j < x_raw_.size(); ++j) {
    const double z = (standardized(j) - mu[group_[j]]) /
                     std::sqrt(noise * noise_scale_[j]);
    if (std::fabs(z) <= options_.robust_threshold) continue;
    const double ratio = std::fabs(z) / options_.robust_threshold;
    const double target = std::min(options_.robust_inflation_cap,
                                   noise_scale_[j] * ratio * ratio);
    if (target > noise_scale_[j]) {
      // Scale is exactly 1.0 until the first inflation: this counts each
      // point at most once across the reweighting rounds.
      if (noise_scale_[j] == 1.0) ++diagnostics_.outliers_downweighted;  // pamo-analyze: allow(float-eq)
      noise_scale_[j] = target;
      changed = true;
    }
  }
  if (changed) solve_system();
  return changed;
}

GpRegressor::GroupMoments GpRegressor::unit_moments() const {
  const std::size_t d = x_.size();
  GroupMoments m;
  m.count.assign(d, 0.0);
  m.mean.assign(d, 0.0);
  for (std::size_t j = 0; j < x_raw_.size(); ++j) {
    m.count[group_[j]] += 1.0;
    m.mean[group_[j]] += standardized(j);
  }
  for (std::size_t i = 0; i < d; ++i) {
    m.mean[i] /= m.count[i];
    m.log_count_sum += std::log(m.count[i]);
  }
  for (std::size_t j = 0; j < x_raw_.size(); ++j) {
    const double r = standardized(j) - m.mean[group_[j]];
    m.within_ss += r * r;
  }
  return m;
}

double GpRegressor::lml(const GroupMoments& moments,
                        const KernelParams& params) const {
  const double noise = std::exp(params.log_noise_var);
  la::Matrix k = kernel_matrix(options_.kernel, params, x_);
  for (std::size_t i = 0; i < x_.size(); ++i) {
    k(i, i) += noise / moments.count[i];
  }
  try {
    const la::Cholesky chol(k);
    const la::Vector alpha = chol.solve(moments.mean);
    const double fit_term = la::dot(moments.mean, alpha);
    const auto d = static_cast<double>(x_.size());
    const double reduced = -0.5 * (fit_term + chol.log_det() + d * kLog2Pi);
    // Π_j N(y_j; f_i, σ²) = N(ȳ_i; f_i, σ²/m_i) · (2πσ²)^{−(m_i−1)/2} ·
    // m_i^{−1/2} · exp(−SS_i/2σ²), summed over the groups. Zero when
    // every input is distinct.
    const auto repeats = static_cast<double>(x_raw_.size()) - d;
    return reduced - 0.5 * (repeats * (kLog2Pi + params.log_noise_var) +
                            moments.log_count_sum +
                            moments.within_ss / noise);
  } catch (const Error&) {
    return -std::numeric_limits<double>::max();
  }
}

double GpRegressor::log_marginal_likelihood(const KernelParams& params) const {
  PAMO_CHECK(is_fit(), "log_marginal_likelihood before fit");
  return lml(unit_moments(), params);
}

double GpRegressor::predict_mean(const std::vector<double>& x) const {
  PAMO_CHECK(is_fit(), "predict before fit");
  const std::vector<double> xs = scale_input(x);
  const KernelEvaluator k_eval(options_.kernel, params_);
  double sum = 0.0;
  for (std::size_t i = 0; i < x_.size(); ++i) {
    sum += k_eval(xs, x_[i]) * alpha_[i];
  }
  return y_mean_ + y_std_ * sum;
}

double GpRegressor::predict_var(const std::vector<double>& x) const {
  PAMO_CHECK(is_fit(), "predict before fit");
  const std::vector<double> xs = scale_input(x);
  const KernelEvaluator k_eval(options_.kernel, params_);
  const double prior = k_eval.signal_var();
  la::Vector kstar(x_.size());
  for (std::size_t i = 0; i < x_.size(); ++i) kstar[i] = k_eval(xs, x_[i]);
  const la::Vector v = chol_->solve_lower(kstar);
  const double var = prior - la::dot(v, v);
  return std::max(0.0, var) * y_std_ * y_std_;
}

void GpRegressor::refresh_posterior_workspace(
    std::vector<std::vector<double>>&& xs) const {
  const std::size_t n = x_.size();
  const std::uint64_t key = fingerprint_rows(xs);
  const bool same_query = options_.incremental && workspace_.valid &&
                          workspace_.key == key && workspace_.xs == xs;
  if (same_query && workspace_.factor_epoch == factor_epoch_ &&
      workspace_.train_rows <= n) {
    if (workspace_.train_rows == n) return;  // fully current
    // The factor was extended in place since the workspace was built:
    // append the new columns of K* and continue the forward substitution
    // for the new rows of V. Existing entries are untouched, so the
    // result is bit-identical to recomputing against the grown set.
    const std::size_t m = xs.size();
    const std::size_t n_prev = workspace_.train_rows;
    const la::Matrix& l = chol_->lower();
    const KernelEvaluator k_eval(options_.kernel, params_);
    la::Matrix k_cross(m, n, 0.0);
    la::Matrix v(n, m, 0.0);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t j = 0; j < n_prev; ++j) {
        k_cross(c, j) = workspace_.k_cross(c, j);
        v(j, c) = workspace_.v(j, c);
      }
      for (std::size_t j = n_prev; j < n; ++j) {
        k_cross(c, j) = k_eval(workspace_.xs[c], x_[j]);
      }
    }
    for (std::size_t i = n_prev; i < n; ++i) {
      for (std::size_t c = 0; c < m; ++c) {
        double sum = k_cross(c, i);
        for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * v(k, c);
        v(i, c) = sum / l(i, i);
      }
    }
    workspace_.k_cross = std::move(k_cross);
    workspace_.v = std::move(v);
    workspace_.train_rows = n;
    return;
  }
  // Full recompute (new query set, disabled cache, or a refactorized
  // system). k_test depends only on the query rows but is rebuilt here
  // anyway — it is the cheap part, and this keeps the workspace an
  // all-or-nothing snapshot.
  workspace_.k_cross = kernel_cross(options_.kernel, params_, xs, x_);
  workspace_.k_test = kernel_matrix(options_.kernel, params_, xs);
  workspace_.v = chol_->solve_lower(workspace_.k_cross.transposed());
  workspace_.xs = std::move(xs);
  workspace_.key = key;
  workspace_.factor_epoch = factor_epoch_;
  workspace_.train_rows = n;
  workspace_.valid = true;
}

Posterior GpRegressor::posterior(
    const std::vector<std::vector<double>>& x) const {
  PAMO_SPAN("gp.posterior");
  PAMO_COUNT("gp.posteriors", 1);
  PAMO_CHECK(is_fit(), "posterior before fit");
  const std::size_t m = x.size();
  PAMO_CHECK(m > 0, "posterior over an empty set");
  std::vector<std::vector<double>> xs;
  xs.reserve(m);
  for (const auto& row : x) xs.push_back(scale_input(row));
  refresh_posterior_workspace(std::move(xs));
  const PosteriorWorkspace& ws = workspace_;

  const std::size_t n = x_.size();
  Posterior post;
  post.mean.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += ws.k_cross(i, j) * alpha_[j];
    post.mean[i] = y_mean_ + y_std_ * sum;
  }

  // cov = K** - K*ᵀ (K + σ²I)⁻¹ K* = K** - VᵀV with V = L⁻¹ K*ᵀ. The
  // blocked product accumulates r-ascending per element, so VᵀV is exactly
  // symmetric and matches the naive triangle loop term-for-term.
  const la::Matrix vtv = la::matmul_blocked(ws.v.transposed(), ws.v);
  post.covariance = la::Matrix(m, m);
  const double scale2 = y_std_ * y_std_;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      post.covariance(i, j) = (ws.k_test(i, j) - vtv(i, j)) * scale2;
    }
  }
  PAMO_ENSURES(post.mean.size() == m && post.covariance.rows() == m &&
                   post.covariance.cols() == m,
               "posterior is square over the query set");
  return post;
}

la::Matrix GpRegressor::sample_joint(const std::vector<std::vector<double>>& x,
                                     std::size_t num_samples, Rng& rng) const {
  PAMO_EXPECTS(num_samples > 0, "sample_joint of zero samples");
  // Draw every normal serially in sample-major order — the exact sequence
  // the historical all-serial loop consumed — then run the deterministic
  // colouring transform (possibly in parallel) on top.
  la::Matrix z(num_samples, x.size());
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (std::size_t i = 0; i < x.size(); ++i) z(s, i) = rng.normal();
  }
  return sample_joint_given(x, z);
}

la::Matrix GpRegressor::sample_joint_given(
    const std::vector<std::vector<double>>& x, const la::Matrix& z) const {
  const std::size_t m = x.size();
  const std::size_t num_samples = z.rows();
  PAMO_EXPECTS(num_samples > 0, "sample_joint of zero samples");
  PAMO_CHECK(z.cols() == m, "normals/query-set size mismatch");
  const Posterior post = posterior(x);
  // Small jitter for numerical PSD-ness of the posterior covariance.
  const la::Cholesky chol(post.covariance, options_.posterior_max_jitter);
  diagnostics_.posterior_jitter =
      std::max(diagnostics_.posterior_jitter, chol.jitter());
  la::Matrix samples(num_samples, m);
  // Each sample is a pure function of its own z row, L, and the mean:
  // rows are written disjointly and in a fixed per-row order, so the
  // fan-out is bit-identical at any thread count. The grain keeps small
  // batches (the common tiny-grid case) entirely inline.
  const std::size_t grain = std::max<std::size_t>(1, 32768 / (m * m + 1));
  parallel_for(
      num_samples,
      [&](std::size_t s) {
        for (std::size_t i = 0; i < m; ++i) {
          double sum = post.mean[i];
          for (std::size_t j = 0; j <= i; ++j) {
            sum += chol.lower()(i, j) * z(s, j);
          }
          samples(s, i) = sum;
        }
      },
      grain);
  return samples;
}

}  // namespace pamo::gp
