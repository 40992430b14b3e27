#include "gp/gp_regressor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/error.hpp"
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

}  // namespace

GpRegressor::GpRegressor(std::vector<std::vector<double>> grid,
                         GpOptions options)
    : options_(std::move(options)), grid_(std::move(grid)) {
  PAMO_CHECK(!grid_.empty(), "a GP needs a non-empty input set");
  dim_ = grid_.front().size();
  PAMO_CHECK(dim_ >= 1, "GP inputs must have dimension >= 1");
  std::vector<double> lo(dim_, std::numeric_limits<double>::max());
  std::vector<double> hi(dim_, std::numeric_limits<double>::lowest());
  for (std::size_t g = 0; g < grid_.size(); ++g) {
    const auto& row = grid_[g];
    PAMO_CHECK(row.size() == dim_, "ragged GP input set");
    for (std::size_t i = 0; i < dim_; ++i) {
      PAMO_CHECK(std::isfinite(row[i]), "non-finite GP input");
      lo[i] = std::min(lo[i], row[i]);
      hi[i] = std::max(hi[i], row[i]);
    }
    PAMO_CHECK(grid_index(row) == g, "GP input set has a repeated point");
  }
  scaled_grid_.reserve(grid_.size());
  for (const auto& row : grid_) {
    std::vector<double> scaled(dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      const double width = hi[i] - lo[i];
      scaled[i] = width > 0 ? (row[i] - lo[i]) / width : 0.0;
    }
    scaled_grid_.push_back(std::move(scaled));
  }
}

std::size_t GpRegressor::grid_index(const std::vector<double>& x) const {
  for (std::size_t g = 0; g < grid_.size(); ++g) {
    if (grid_[g] == x) return g;
  }
  throw Error("GP input is not a point of the model's input set");
}

std::size_t GpRegressor::sanitize(std::vector<std::size_t>& at,
                                  std::vector<double>& y) const {
  PAMO_CHECK(at.size() == y.size(), "grid-index/target size mismatch");
  for (const std::size_t g : at) {
    PAMO_CHECK(g < grid_.size(), "observation index is off the input set");
  }
  if (!options_.reject_nonfinite) {
    for (const double v : y) {
      PAMO_CHECK(std::isfinite(v),
                 "non-finite observation (NaN/Inf) in GP training data; set "
                 "GpOptions::reject_nonfinite to drop such rows");
    }
    return 0;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (std::isfinite(y[i])) {
      at[kept] = at[i];
      y[kept] = y[i];
      ++kept;
    }
  }
  const std::size_t dropped = y.size() - kept;
  at.resize(kept);
  y.resize(kept);
  return dropped;
}

void GpRegressor::fit(std::vector<std::size_t> at, std::vector<double> y) {
  PAMO_SPAN("gp.fit");
  PAMO_COUNT("gp.fits", 1);
  const std::size_t rejected = sanitize(at, y);
  diagnostics_ = {};
  diagnostics_.rows_rejected = rejected;
  PAMO_CHECK(at.size() >= 2, "GP fit requires at least 2 finite points");
  for (auto* cells : {&count_, &mean_, &m2_, &weight_, &wmean_, &hi_, &lo_}) {
    cells->clear();
  }
  cell_.clear();
  absorb(at, y, /*choose_params=*/true);
  PAMO_ENSURES(is_fit() && solved_over_all_cells(),
               "fit leaves a solved system over every cell");
}

void GpRegressor::update(const std::vector<std::size_t>& at,
                         const std::vector<double>& y) {
  PAMO_SPAN("gp.update");
  PAMO_COUNT("gp.updates", 1);
  PAMO_CHECK(is_fit(), "update before fit");
  std::vector<std::size_t> points = at;
  std::vector<double> ys = y;
  diagnostics_.rows_rejected += sanitize(points, ys);
  // Nothing new: the solved system already is exactly what a re-solve over
  // the unchanged cells would produce.
  if (points.empty()) return;
  absorb(points, ys, /*choose_params=*/false);
  PAMO_ENSURES(solved_over_all_cells(),
               "update leaves a solved system over every cell");
}

void GpRegressor::absorb(const std::vector<std::size_t>& at,
                         const std::vector<double>& y, bool choose_params) {
  Batch batch;
  batch.base_weight = weight_;
  batch.base_wmean = wmean_;
  batch.cell.reserve(at.size());
  for (std::size_t j = 0; j < at.size(); ++j) {
    const std::size_t cell = cell_of(at[j]);
    fold_unit(cell, y[j]);
    batch.cell.push_back(cell);
  }
  batch.y = y;
  batch.noise_scale.assign(at.size(), 1.0);  // fresh rows carry λ = 1
  standardize();
  if (choose_params) choose_hyperparams();
  fold_weights(batch);
  solve_system();
  if (options_.robust_noise) {
    for (std::size_t round = 0; round < kRobustRounds; ++round) {
      if (!reweight_outliers(batch)) break;
    }
    note_extremes(batch);
  }
}

void GpRegressor::choose_hyperparams() {
  PAMO_SPAN("gp.rebuild");
  PAMO_COUNT("gp.rebuilds", 1);
  if (options_.fixed_params.has_value()) {
    params_ = *options_.fixed_params;
    PAMO_CHECK(params_.dim() == dim_, "fixed hyperparameter dim mismatch");
  } else {
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

    // Every observation enters the likelihood, at the cost of a solve
    // over the cells.
    const mle::GroupMoments moments = unit_moments();
    const std::vector<std::vector<double>> x = cell_inputs();
    mle::NegLogLikelihood neg_lml(options_.kernel, x, moments);
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
  form_kernel_table();
}

void GpRegressor::form_kernel_table() {
  k_grid_ = kernel_matrix(options_.kernel, params_, scaled_grid_);
}

std::vector<std::vector<double>> GpRegressor::cell_inputs() const {
  std::vector<std::vector<double>> x;
  x.reserve(cell_.size());
  for (const std::size_t g : cell_) x.push_back(scaled_grid_[g]);
  return x;
}

std::size_t GpRegressor::cell_of(std::size_t g) {
  const auto it = std::find(cell_.begin(), cell_.end(), g);
  if (it != cell_.end()) return static_cast<std::size_t>(it - cell_.begin());
  cell_.push_back(g);
  for (auto* cells : {&count_, &mean_, &m2_, &weight_, &wmean_}) {
    cells->push_back(0.0);
  }
  hi_.push_back(-std::numeric_limits<double>::infinity());
  lo_.push_back(std::numeric_limits<double>::infinity());
  return cell_.size() - 1;
}

void GpRegressor::fold_unit(std::size_t cell, double y) {
  count_[cell] += 1.0;
  const double delta = y - mean_[cell];
  mean_[cell] += delta / count_[cell];
  m2_[cell] += delta * (y - mean_[cell]);
}

void GpRegressor::fold_weight(std::size_t cell, double y, double w) {
  weight_[cell] += w;
  wmean_[cell] += w * (y - wmean_[cell]) / weight_[cell];
}

void GpRegressor::standardize() {
  // Chan et al.'s pairwise merge of the cells' moments, in cell order.
  double rows = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i < count_.size(); ++i) {
    const double total = rows + count_[i];
    const double delta = mean_[i] - mean;
    mean += delta * count_[i] / total;
    m2 += m2_[i] + delta * delta * rows * count_[i] / total;
    rows = total;
  }
  y_mean_ = mean;
  // The sample standard deviation, as common/stats' stddev_of.
  y_std_ = rows >= 2.0 ? std::sqrt(m2 / (rows - 1.0)) : 0.0;
  if (y_std_ < 1e-12) y_std_ = 1.0;  // constant targets: keep scale sane
}

void GpRegressor::fold_weights(const Batch& batch) {
  weight_ = batch.base_weight;
  wmean_ = batch.base_wmean;
  weight_.resize(cell_.size(), 0.0);
  wmean_.resize(cell_.size(), 0.0);
  for (std::size_t j = 0; j < batch.cell.size(); ++j) {
    fold_weight(batch.cell[j], batch.y[j], 1.0 / batch.noise_scale[j]);
  }
  standardize_targets();
}

void GpRegressor::standardize_targets() {
  y_.resize(wmean_.size());
  for (std::size_t i = 0; i < wmean_.size(); ++i) {
    y_[i] = (wmean_[i] - y_mean_) / y_std_;
  }
}

std::size_t GpRegressor::num_points() const {
  double rows = 0.0;
  for (const double c : count_) rows += c;
  return static_cast<std::size_t>(rows);
}

void GpRegressor::solve_system() {
  const std::size_t n = cell_.size();
  la::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) k(i, j) = k_grid_(cell_[i], cell_[j]);
  }
  const double noise = std::exp(params_.log_noise_var);
  for (std::size_t i = 0; i < n; ++i) k(i, i) += noise / weight_[i];
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
}

double GpRegressor::robust_z(std::size_t cell, double y,
                             double lambda) const {
  const double noise = std::exp(params_.log_noise_var);
  // Posterior mean at the cell's input: μ_i = ȳ_i − (σ²/W_i)·α_i.
  const double mu = y_[cell] - noise / weight_[cell] * alpha_[cell];
  return ((y - y_mean_) / y_std_ - mu) / std::sqrt(noise * lambda);
}

bool GpRegressor::reweight_outliers(Batch& batch) {
  // Earlier rows are judged in the same round as the batch, as one IRLS
  // over every row would: each crossing row's λ grows with its own
  // residual, so an old outlier that clean rows expose is inflated the
  // most instead of masked by them.
  pull_extremes(batch);
  const bool changed = inflate_outliers(batch);
  if (changed) {
    fold_weights(batch);
    solve_system();
  }
  return changed;
}

bool GpRegressor::inflate_outliers(Batch& batch) {
  const double threshold = options_.robust_threshold;
  bool changed = false;
  for (std::size_t j = 0; j < batch.cell.size(); ++j) {
    double& lambda = batch.noise_scale[j];
    const double z = robust_z(batch.cell[j], batch.y[j], lambda);
    if (std::fabs(z) <= threshold) continue;
    const double ratio = std::fabs(z) / threshold;
    const double target =
        std::min(kRobustInflationCap, lambda * ratio * ratio);
    if (target > lambda) {
      // Scale is exactly 1.0 until the first inflation: this counts each
      // point at most once across the reweighting rounds.
      if (lambda == 1.0) ++diagnostics_.outliers_downweighted;  // pamo-analyze: allow(float-eq)
      lambda = target;
      changed = true;
    }
  }
  return changed;
}

void GpRegressor::pull_extremes(Batch& batch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < hi_.size(); ++i) {
    for (double* extreme : {&hi_[i], &lo_[i]}) {
      const double y = *extreme;
      if (!std::isfinite(y) ||
          std::fabs(robust_z(i, y, 1.0)) <= options_.robust_threshold) {
        continue;
      }
      // Take the row's unit weight out of the cell's statistics from
      // before the call; every other row weighs at least 1/cap.
      double& w = batch.base_weight[i];
      double& wmean = batch.base_wmean[i];
      const double rest = w - 1.0;
      const bool others = rest > 0.5 / kRobustInflationCap;
      wmean = others ? (w * wmean - y) / rest : 0.0;
      w = others ? rest : 0.0;
      batch.cell.push_back(i);
      batch.y.push_back(y);
      batch.noise_scale.push_back(1.0);
      // hi == lo may be one row, which must not be pulled twice.
      const bool one_row = hi_[i] == lo_[i];  // pamo-analyze: allow(float-eq)
      if (one_row || extreme == &hi_[i]) hi_[i] = -kInf;
      if (one_row || extreme == &lo_[i]) lo_[i] = kInf;
    }
  }
}

void GpRegressor::note_extremes(const Batch& batch) {
  for (std::size_t j = 0; j < batch.cell.size(); ++j) {
    if (batch.noise_scale[j] != 1.0) continue;  // pamo-analyze: allow(float-eq)
    const std::size_t i = batch.cell[j];
    hi_[i] = std::max(hi_[i], batch.y[j]);
    lo_[i] = std::min(lo_[i], batch.y[j]);
  }
}

mle::GroupMoments GpRegressor::unit_moments() const {
  const std::size_t d = count_.size();
  mle::GroupMoments m;
  m.count = count_;
  m.mean.resize(d);
  m.rows = num_points();
  for (std::size_t i = 0; i < d; ++i) {
    m.mean[i] = (mean_[i] - y_mean_) / y_std_;
    m.log_count_sum += std::log(count_[i]);
    m.within_ss += m2_[i];
  }
  m.within_ss /= y_std_ * y_std_;
  return m;
}

double GpRegressor::log_marginal_likelihood(const KernelParams& params) const {
  PAMO_CHECK(is_fit(), "log_marginal_likelihood before fit");
  const mle::GroupMoments moments = unit_moments();
  const std::vector<std::vector<double>> x = cell_inputs();
  mle::NegLogLikelihood neg_lml(options_.kernel, x, moments);
  const double value = neg_lml(params.pack(), nullptr);
  // An unfactorizable system has no likelihood: report the lowest value.
  return std::isinf(value) ? -std::numeric_limits<double>::max() : -value;
}

double GpRegressor::predict_mean(std::size_t g) const {
  PAMO_CHECK(is_fit(), "predict before fit");
  PAMO_CHECK(g < grid_.size(), "prediction index is off the input set");
  double sum = 0.0;
  for (std::size_t i = 0; i < cell_.size(); ++i) {
    sum += k_grid_(g, cell_[i]) * alpha_[i];
  }
  return y_mean_ + y_std_ * sum;
}

Posterior GpRegressor::posterior() const {
  PAMO_SPAN("gp.posterior");
  PAMO_COUNT("gp.posteriors", 1);
  PAMO_CHECK(is_fit(), "posterior before fit");
  const std::size_t m = grid_.size();
  const std::size_t n = cell_.size();
  // K*ᵀ (cells × grid) is a row slice of K_grid; V = L⁻¹ K*ᵀ.
  la::Matrix k_cross_t(n, m);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t c = 0; c < m; ++c) k_cross_t(j, c) = k_grid_(cell_[j], c);
  }
  const la::Matrix v = chol_->solve_lower(k_cross_t);

  Posterior post;
  post.mean.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += k_cross_t(j, i) * alpha_[j];
    post.mean[i] = y_mean_ + y_std_ * sum;
  }

  // cov = K** - K*ᵀ (K + σ²I)⁻¹ K* = K** - VᵀV with K** = K_grid. VᵀV is
  // formed on and above the diagonal, each entry summed over the cells r
  // in ascending order, and mirrored, so it is exactly symmetric at half
  // the products.
  la::Matrix vtv(m, m, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < m; ++i) {
      const double vri = v(r, i);
      // Exact-zero skip: a zero V(r, i) adds nothing to row i's sums.
      if (vri == 0.0) continue;  // pamo-analyze: allow(float-eq)
      for (std::size_t j = i; j < m; ++j) vtv(i, j) += vri * v(r, j);
    }
  }
  post.covariance = la::Matrix(m, m);
  const double scale2 = y_std_ * y_std_;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double cross = j >= i ? vtv(i, j) : vtv(j, i);
      post.covariance(i, j) = (k_grid_(i, j) - cross) * scale2;
    }
  }
  PAMO_ENSURES(post.mean.size() == m && post.covariance.rows() == m &&
                   post.covariance.cols() == m,
               "posterior is square over the input set");
  return post;
}

la::Matrix GpRegressor::sample_joint_given(const la::Matrix& z) const {
  const std::size_t m = grid_.size();
  const std::size_t num_samples = z.rows();
  PAMO_EXPECTS(num_samples > 0, "sample_joint_given of zero samples");
  PAMO_CHECK(z.cols() == m, "normals/input-set size mismatch");
  const Posterior post = posterior();
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
