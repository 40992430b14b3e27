// Exact Gaussian process regression with MLE hyperparameters.
//
// Targets are standardized internally (zero mean, unit variance); inputs
// are min-max scaled to [0, 1] per dimension so that lengthscale priors and
// boxes are dimensionless. Hyperparameters are fit by multi-start
// projected BFGS on the negative log marginal likelihood and its analytic
// gradient (gp/mle.hpp). predict() returns the posterior on the original
// target scale.
//
// Repeated inputs are folded exactly: the system is solved on the distinct
// inputs X_d with per-input sufficient statistics (weight W_i = Σ_j 1/λ_j
// over the rows at input i, and their weighted mean target), because
// Π_j N(y_j; f_i, σ²λ_j) = N(ȳ_i; f_i, σ²/W_i) × (a term free of f). So a
// caller on a finite grid pays for at most |grid| rows in every solve,
// marginal-likelihood evaluation and posterior, however many observations
// it has fed in.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gp/kernel.hpp"
#include "la/cholesky.hpp"
#include "obs/json.hpp"

namespace pamo::gp {

namespace mle {
struct GroupMoments;  // gp/mle.hpp, private to src/gp
}  // namespace mle

/// Reweighting passes of the robust fit (GpOptions::robust_noise).
inline constexpr std::size_t kRobustRounds = 3;
/// Cap on the per-point noise-variance inflation factor of the robust fit.
inline constexpr double kRobustInflationCap = 1e4;

struct GpOptions {
  KernelType kernel = KernelType::kMatern52;
  /// Hyperparameter MLE: quasi-random restarts after the fixed start, and
  /// the value-and-gradient evaluations each start may spend.
  std::size_t mle_restarts = 4;
  std::size_t mle_max_evals = 300;
  /// If set, skip MLE and use these hyperparameters as-is.
  std::optional<KernelParams> fixed_params;
  /// When true, non-finite (NaN/Inf) training rows are dropped and counted
  /// in diagnostics() instead of failing the fit — at least 2 finite rows
  /// must remain. When false, fit()/update() reject non-finite data with a
  /// clear precondition error.
  bool reject_nonfinite = false;
  /// Outlier-robust fitting: after the standard solve, training points
  /// whose standardized residual exceeds `robust_threshold` get their
  /// observation-noise variance inflated proportionally and the linear
  /// algebra is re-solved (iteratively reweighted noise). A heavy-tailed
  /// outlier is then explained as noise instead of bending the posterior
  /// mean. No-op (bit-for-bit) when no residual crosses the threshold.
  /// At most kRobustRounds passes, each factor capped at
  /// kRobustInflationCap.
  bool robust_noise = false;
  double robust_threshold = 3.0;
  /// Hot path for the decision loop. update() of a batch inside the input
  /// box extends the cached Cholesky factor by the new inputs in O(d²)
  /// when they are all new (d = distinct inputs), or re-solves the
  /// ≤ d-row system without rescaling or MLE when the batch repeats an
  /// input. Every solve reuses the noise-free training Gram K(X_d, X_d)
  /// and computes only the entries of new distinct inputs. posterior()
  /// keeps K(X*, X_d) and K(X*, X*) across calls over the same query set
  /// while the hyperparameters and X_d's prefix hold, and recomputes only
  /// V = L⁻¹K*ᵀ after a refactorization. All of it is bit-for-bit
  /// identical to the full recomputation (false recomputes everything)
  /// and falls back to it automatically whenever exactness cannot be
  /// guaranteed — see diagnostics().incremental_fallbacks for when that
  /// happens.
  bool incremental = true;
  std::uint64_t seed = 0xC0FFEE;
};

/// Robustness bookkeeping of the most recent fit (reset by fit(),
/// accumulated across update() calls).
struct GpFitDiagnostics {
  /// Non-finite training rows dropped by sanitization.
  std::size_t rows_rejected = 0;
  /// Training points whose noise variance the robust fit inflated.
  std::size_t outliers_downweighted = 0;
  /// Cholesky failures recovered by re-factorizing with a wider jitter cap.
  std::size_t cholesky_recoveries = 0;
  /// Largest diagonal jitter added to the training-covariance factorization.
  double fit_jitter = 0.0;
  /// Largest jitter used to repair a sampled posterior covariance.
  double posterior_jitter = 0.0;
  /// update() calls served without a full rebuild: the factor extension
  /// or the in-box re-solve of a batch that repeats an input.
  std::size_t incremental_updates = 0;
  /// Incremental-eligible update() calls that fell back to a full rebuild
  /// (hyperparameter re-optimization, robust noise, prior jitter, a grown
  /// input box, or a non-PD extension).
  std::size_t incremental_fallbacks = 0;
};

struct Posterior {
  la::Vector mean;
  la::Matrix covariance;  // full joint covariance (noise-free latent)
};

class GpRegressor {
 public:
  explicit GpRegressor(GpOptions options = {});

  /// Fit to (x, y). Requires at least 2 points; all rows must share one
  /// dimension. Refitting replaces previous data.
  void fit(std::vector<std::vector<double>> x, std::vector<double> y);

  /// Add observations and refit the linear algebra. Hyperparameters are
  /// re-optimized only when `reoptimize` is true (it is the expensive part).
  void update(const std::vector<std::vector<double>>& x,
              const std::vector<double>& y, bool reoptimize = false);

  [[nodiscard]] bool is_fit() const { return !x_raw_.empty(); }
  /// Observations held (raw rows, repeats included).
  [[nodiscard]] std::size_t num_points() const { return x_raw_.size(); }
  /// Distinct inputs the system is solved on (≤ num_points()).
  [[nodiscard]] std::size_t num_distinct() const { return x_.size(); }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] const KernelParams& params() const { return params_; }

  /// Robustness bookkeeping since the last fit(). posterior_jitter is
  /// additionally updated by sample_joint_given (hence mutable state).
  [[nodiscard]] const GpFitDiagnostics& diagnostics() const {
    return diagnostics_;
  }

  /// Posterior mean at one point (original target scale).
  [[nodiscard]] double predict_mean(const std::vector<double>& x) const;

  /// Posterior variance of the latent function at one point (original
  /// target scale, without observation noise).
  [[nodiscard]] double predict_var(const std::vector<double>& x) const;

  /// Joint posterior over a set of points.
  [[nodiscard]] Posterior posterior(
      const std::vector<std::vector<double>>& x) const;

  /// Joint samples of the latent function at `x`, driven by standard
  /// normals the caller supplies: row s of `z` (num_samples × x.size())
  /// drives sample s, and the result is (num_samples × x.size()). Callers
  /// pre-draw the randomness serially in a fixed order; the deterministic
  /// colouring transform then runs in parallel.
  [[nodiscard]] la::Matrix sample_joint_given(
      const std::vector<std::vector<double>>& x, const la::Matrix& z) const;

  /// Log marginal likelihood of the standardized data (every row, unit
  /// noise weights) under `params`, computed on the distinct inputs.
  [[nodiscard]] double log_marginal_likelihood(
      const KernelParams& params) const;

  /// Serialize the source of truth as deterministic JSON: the raw rows,
  /// their noise scales, the hyperparameters and the diagnostics counters. Everything else (scaling, distinct rows, factor,
  /// alpha, posterior workspace) is a deterministic function of these.
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild the fitted state from snapshot() by re-deriving the scaling,
  /// the distinct rows, the factor and alpha with one solve (no MLE). The
  /// regressor must have been constructed with the same GpOptions as the
  /// snapshotted one; after restore, every prediction, sample, and
  /// incremental update is bit-for-bit identical to the original
  /// instance's. All-or-nothing: a snapshot that fails a check throws and
  /// leaves this instance untouched. Snapshots that also carry the derived
  /// keys (x, y, chol, alpha, ...) or the retired drift-detector keys
  /// restore the same way; those keys are ignored.
  void restore(const obs::json::Value& snap);

 private:
  /// Cross-covariance workspace reused by posterior() across calls over
  /// the same query set. `key` fingerprints the scaled query rows (with an
  /// exact row comparison against `xs` to rule out hash collisions).
  /// k_cross and k_test hold while `kernel_epoch` is current: their
  /// entries over the first `train_rows` distinct inputs are unchanged, so
  /// new inputs only append columns to k_cross. `factor_epoch` ties V to
  /// the factor it was computed against: an in-place factor extension
  /// continues its forward substitution, a refactorization recomputes it.
  struct PosteriorWorkspace {
    bool valid = false;
    std::uint64_t key = 0;
    std::uint64_t kernel_epoch = 0;
    std::uint64_t factor_epoch = 0;
    std::size_t train_rows = 0;
    std::vector<std::vector<double>> xs;  // scaled query rows
    la::Matrix k_cross;                   // m × n
    la::Matrix k_test;                    // m × m
    la::Matrix v;                         // n × m, V = L⁻¹ K*ᵀ
  };

  void rebuild(bool optimize_hyperparams);
  /// Extend the cached factor by the distinct inputs from `first_new` on
  /// (all of them fresh, each with weight 1). Returns false when the
  /// extension would not be bit-identical to a full rebuild (see
  /// GpOptions::incremental); callers then rebuild.
  bool try_incremental_update(std::size_t first_new);
  /// Bring workspace_ up to date for the scaled query rows `xs`.
  void refresh_posterior_workspace(std::vector<std::vector<double>>&& xs) const;
  /// The noise-free Gram K(x_, x_) under params_: gram_ extended by the
  /// entries of distinct inputs appended since it was computed, or
  /// recomputed when kernel_epoch_ has moved on.
  const la::Matrix& training_gram();
  /// Min-max scale over every raw row, then group all of them.
  void derive_inputs();
  /// Assign raw rows [first, n) to distinct inputs, appending unseen
  /// scaled inputs to x_ in first-occurrence order.
  void group_rows(std::size_t first);
  /// Standardize the targets and aggregate them per distinct input: W_i
  /// and the W-weighted mean ȳ_i.
  void aggregate_targets();
  /// aggregate_targets(), then factorize K(x_, x_) + σ²·diag(1/W_i) and
  /// solve for alpha_, recovering from Cholesky failures by widening the
  /// jitter cap.
  void solve_system();
  /// solve_system(), then the robust reweighting rounds when enabled.
  void solve_and_reweight();
  [[nodiscard]] double standardized(std::size_t row) const {
    return (y_raw_[row] - y_mean_) / y_std_;
  }
  /// Unit-weight sufficient statistics of the standardized targets per
  /// distinct input: the hyperparameter MLE's view of the data.
  [[nodiscard]] mle::GroupMoments unit_moments() const;
  /// The solved system covers every kept training row (postcondition of
  /// fit()/update()).
  [[nodiscard]] bool solved_over_all_rows() const {
    return group_.size() == x_raw_.size() &&
           noise_scale_.size() == x_raw_.size() &&
           alpha_.size() == x_.size();
  }
  /// One pass of iteratively reweighted noise: inflate noise_scale_ for
  /// points with large standardized residuals, then re-solve. Returns
  /// false (leaving the solve untouched, bit-for-bit) when no residual
  /// crosses the threshold.
  bool reweight_outliers();
  /// Drop non-finite rows (reject_nonfinite) or reject them loudly.
  void sanitize(std::vector<std::vector<double>>& x, std::vector<double>& y);
  [[nodiscard]] std::vector<double> scale_input(
      const std::vector<double>& x) const;

  // Construction-time configuration, re-supplied by the ctor on restore.
  // pamo-analyze: allow(snapshot-coverage)
  GpOptions options_;
  std::size_t dim_ = 0;

  // Source of truth: raw training rows (original scale) and their
  // per-row noise-variance inflation factors λ_j (≥ 1; 1 unless the robust
  // fit inflated the row).
  std::vector<std::vector<double>> x_raw_;
  std::vector<double> y_raw_;
  std::vector<double> noise_scale_;
  KernelParams params_;
  mutable GpFitDiagnostics diagnostics_;

  // Everything below is derived from the members above; restore()
  // re-derives it with one solve instead of reading it back.
  // Input scaling (min-max per dimension) and target standardization.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<double> x_lo_, x_hi_;
  // pamo-analyze: allow(snapshot-coverage)
  double y_mean_ = 0.0, y_std_ = 1.0;
  // Distinct scaled inputs X_d in first-occurrence order.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<std::vector<double>> x_;
  // Raw row → index into x_.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<std::size_t> group_;
  // Per distinct input: W_i = Σ_j 1/λ_j and the W-weighted mean ȳ_i of
  // the standardized targets.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<double> weight_;
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<double> y_;
  // pamo-analyze: allow(snapshot-coverage)
  std::optional<la::Cholesky> chol_;
  // (K_d + σ²·diag(1/W))⁻¹ ȳ
  // pamo-analyze: allow(snapshot-coverage)
  la::Vector alpha_;
  // Bumped by every full refactorization (solve_system); incremental
  // factor extensions keep it, which is what lets the posterior workspace
  // extend its V rows instead of starting over.
  // pamo-analyze: allow(snapshot-coverage)
  std::uint64_t factor_epoch_ = 0;
  // Bumped by rebuild() when a kernel entry over x_ may have changed: new
  // lengthscales or signal variance, or re-derived inputs that do not
  // merely extend the previous x_. Within one value, every kernel table
  // over a prefix of x_ stays exact.
  // pamo-analyze: allow(snapshot-coverage)
  std::uint64_t kernel_epoch_ = 0;
  // training_gram()'s table and the kernel_epoch_ it was computed in.
  // pamo-analyze: allow(snapshot-coverage)
  la::Matrix gram_;
  // pamo-analyze: allow(snapshot-coverage)
  std::uint64_t gram_epoch_ = 0;
  // posterior()'s kernel tables for the last query set (see
  // PosteriorWorkspace), kept across calls.
  // pamo-analyze: allow(snapshot-coverage)
  mutable PosteriorWorkspace workspace_;
};

}  // namespace pamo::gp
