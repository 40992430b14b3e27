#include "gp/gp_regressor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "gp/mle.hpp"
#include "obs/obs.hpp"

namespace pamo::gp {

namespace {

/// Lower bound of the MLE's noise variance (standardized target scale).
constexpr double kMinNoiseVar = 1e-6;
/// PSD-repair jitter cap for posterior covariance sampling
/// (sample_joint_given); the jitter actually applied is recorded in
/// diagnostics().posterior_jitter.
constexpr double kPosteriorMaxJitter = 1e-2;

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
  // An in-box batch leaves the min-max scaling of the old rows — and with
  // it every existing distinct input — unchanged, so without an MLE or
  // robust reweighting (which re-solves over all rows) the rebuild reduces
  // to folding the new rows into the groups and re-solving the
  // distinct-row system.
  auto inside_box = [this](const std::vector<std::vector<double>>& rows) {
    for (const auto& row : rows) {
      for (std::size_t d = 0; d < dim_; ++d) {
        if (row[d] < x_lo_[d] || row[d] > x_hi_[d]) return false;
      }
    }
    return true;
  };
  const bool in_box_solve = options_.incremental && !want_mle &&
                            !options_.robust_noise && !xs.empty() &&
                            inside_box(xs);
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
  // kernel_matrix and solve_system would form them. They are computed
  // here rather than read from training_gram(): extending that table
  // copies all d² entries, and the next re-solve extends it anyway.
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
  const KernelParams previous_params = params_;
  const std::vector<std::vector<double>> previous_inputs = std::move(x_);
  derive_inputs();
  noise_scale_.assign(x_raw_.size(), 1.0);

  if (options_.fixed_params.has_value()) {
    params_ = *options_.fixed_params;
    PAMO_CHECK(params_.dim() == dim_, "fixed hyperparameter dim mismatch");
  } else if (optimize_hyperparams || params_.dim() != dim_) {
    // MLE over [lengthscales, signal var, noise var] in log space.
    mle::Box box;
    const std::size_t p = dim_ + 2;
    box.lo.assign(p, 0.0);
    box.hi.assign(p, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      box.lo[i] = std::log(0.03);  // inputs are scaled to [0,1]
      box.hi[i] = std::log(10.0);
    }
    box.lo[dim_] = std::log(0.05);  // signal variance (standardized y)
    box.hi[dim_] = std::log(20.0);
    box.lo[dim_ + 1] = std::log(kMinNoiseVar);
    box.hi[dim_ + 1] = std::log(1.0);

    // Every row enters the likelihood, at the cost of a d-row solve.
    aggregate_targets();  // the standardization unit_moments() reads
    const mle::GroupMoments moments = unit_moments();
    mle::NegLogLikelihood neg_lml(options_.kernel, x_, moments);
    const mle::ValueAndGradient objective =
        [&neg_lml](const std::vector<double>& theta,
                   std::vector<double>& grad) { return neg_lml(theta, &grad); };

    KernelParams init;
    init.log_lengthscales.assign(dim_, std::log(0.3));
    init.log_signal_var = 0.0;
    init.log_noise_var = std::log(1e-2);
    const std::vector<double> x0 = init.pack();

    const mle::MinimizeResult best =
        mle::multistart_minimize(objective, box, options_.mle_restarts,
                                 options_.seed, &x0, options_.mle_max_evals);
    params_ = KernelParams::unpack(best.x, dim_);
    PAMO_COUNT("gp.mle_evals", best.evals);
  }
  // The noise variance enters no kernel table; the inputs must only grow.
  const bool same_kernel =
      params_.log_lengthscales == previous_params.log_lengthscales &&
      params_.log_signal_var == previous_params.log_signal_var;
  const bool inputs_extended =
      previous_inputs.size() <= x_.size() &&
      std::equal(previous_inputs.begin(), previous_inputs.end(), x_.begin());
  if (!same_kernel || !inputs_extended) ++kernel_epoch_;
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

const la::Matrix& GpRegressor::training_gram() {
  const std::size_t n = x_.size();
  const std::size_t n_prev = gram_epoch_ == kernel_epoch_ ? gram_.rows() : 0;
  PAMO_ASSERT(n_prev <= n, "distinct inputs shrank within a kernel epoch");
  if (n_prev == n && gram_epoch_ == kernel_epoch_) return gram_;
  // The new columns j >= n_prev, entry for entry as kernel_matrix forms
  // them: k(x_i, x_j) for i < j, mirrored, and σ_f² on the diagonal.
  const KernelEvaluator k_eval(options_.kernel, params_);
  la::Matrix k(n, n);
  for (std::size_t i = 0; i < n_prev; ++i) {
    for (std::size_t j = 0; j < n_prev; ++j) k(i, j) = gram_(i, j);
  }
  for (std::size_t j = n_prev; j < n; ++j) {
    k(j, j) = k_eval.signal_var();
    for (std::size_t i = 0; i < j; ++i) {
      const double v = k_eval(x_[i], x_[j]);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  gram_ = std::move(k);
  gram_epoch_ = kernel_epoch_;
  return gram_;
}

void GpRegressor::solve_system() {
  aggregate_targets();
  la::Matrix k = options_.incremental
                     ? training_gram()
                     : kernel_matrix(options_.kernel, params_, x_);
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
    for (std::size_t round = 0; round < kRobustRounds; ++round) {
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
    const double target = std::min(kRobustInflationCap,
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

mle::GroupMoments GpRegressor::unit_moments() const {
  const std::size_t d = x_.size();
  mle::GroupMoments m;
  m.count.assign(d, 0.0);
  m.mean.assign(d, 0.0);
  m.rows = x_raw_.size();
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

double GpRegressor::log_marginal_likelihood(const KernelParams& params) const {
  PAMO_CHECK(is_fit(), "log_marginal_likelihood before fit");
  const mle::GroupMoments moments = unit_moments();
  mle::NegLogLikelihood neg_lml(options_.kernel, x_, moments);
  const double value = neg_lml(params.pack(), nullptr);
  // An unfactorizable system has no likelihood: report the lowest value.
  return std::isinf(value) ? -std::numeric_limits<double>::max() : -value;
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
  PosteriorWorkspace& ws = workspace_;
  const std::size_t n = x_.size();
  const std::uint64_t key = fingerprint_rows(xs);
  const bool same_tables = options_.incremental && ws.valid &&
                           ws.kernel_epoch == kernel_epoch_ &&
                           ws.train_rows <= n && ws.key == key && ws.xs == xs;
  ws.valid = false;  // until every table below is current
  if (!same_tables) {
    // Full recompute (new query set, disabled cache, or new kernel
    // entries over x_).
    ws.k_cross = kernel_cross(options_.kernel, params_, xs, x_);
    ws.k_test = kernel_matrix(options_.kernel, params_, xs);
    ws.v = chol_->solve_lower(ws.k_cross.transposed());
    ws.xs = std::move(xs);
    ws.key = key;
  } else {
    // K** is a function of the query rows alone. K* gains one column per
    // distinct input appended since, entry for entry as kernel_cross forms
    // it; existing entries are untouched.
    const std::size_t m = ws.xs.size();
    const std::size_t n_prev = ws.train_rows;
    if (n_prev < n) {
      const KernelEvaluator k_eval(options_.kernel, params_);
      la::Matrix k_cross(m, n);
      for (std::size_t c = 0; c < m; ++c) {
        for (std::size_t j = 0; j < n_prev; ++j) {
          k_cross(c, j) = ws.k_cross(c, j);
        }
        for (std::size_t j = n_prev; j < n; ++j) {
          k_cross(c, j) = k_eval(ws.xs[c], x_[j]);
        }
      }
      ws.k_cross = std::move(k_cross);
    }
    if (ws.factor_epoch != factor_epoch_) {
      // Refactorized system: V alone is stale.
      ws.v = chol_->solve_lower(ws.k_cross.transposed());
    } else if (n_prev < n) {
      // The factor was extended in place: continue the forward
      // substitution for the new rows of V, bit-identical to solving
      // against the grown factor from scratch.
      const la::Matrix& l = chol_->lower();
      la::Matrix v(n, m, 0.0);
      for (std::size_t j = 0; j < n_prev; ++j) {
        for (std::size_t c = 0; c < m; ++c) v(j, c) = ws.v(j, c);
      }
      for (std::size_t i = n_prev; i < n; ++i) {
        for (std::size_t c = 0; c < m; ++c) {
          double sum = ws.k_cross(c, i);
          for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * v(k, c);
          v(i, c) = sum / l(i, i);
        }
      }
      ws.v = std::move(v);
    }
  }
  ws.kernel_epoch = kernel_epoch_;
  ws.factor_epoch = factor_epoch_;
  ws.train_rows = n;
  ws.valid = true;
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

la::Matrix GpRegressor::sample_joint_given(
    const std::vector<std::vector<double>>& x, const la::Matrix& z) const {
  const std::size_t m = x.size();
  const std::size_t num_samples = z.rows();
  PAMO_EXPECTS(num_samples > 0, "sample_joint_given of zero samples");
  PAMO_CHECK(z.cols() == m, "normals/query-set size mismatch");
  const Posterior post = posterior(x);
  // Small jitter for numerical PSD-ness of the posterior covariance.
  const la::Cholesky chol(post.covariance, kPosteriorMaxJitter);
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
