// Exact Gaussian process regression with MLE hyperparameters.
//
// Targets are standardized internally (zero mean, unit variance); inputs
// are min-max scaled to [0, 1] per dimension so that lengthscale priors and
// boxes are dimensionless. Hyperparameters are fit by multi-start
// Nelder–Mead on the negative log marginal likelihood. predict() returns
// the posterior on the original target scale.
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

#include "common/rng.hpp"
#include "gp/kernel.hpp"
#include "la/cholesky.hpp"
#include "obs/json.hpp"

namespace pamo::gp {

struct GpOptions {
  KernelType kernel = KernelType::kMatern52;
  /// Number of Nelder–Mead restarts for hyperparameter MLE.
  std::size_t mle_restarts = 4;
  std::size_t mle_max_evals = 300;
  /// If set, skip MLE and use these hyperparameters as-is.
  std::optional<KernelParams> fixed_params;
  /// Lower bound for the noise variance (standardized target scale).
  double min_noise_var = 1e-6;
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
  bool robust_noise = false;
  std::size_t robust_rounds = 3;
  double robust_threshold = 3.0;
  /// Cap on the per-point noise-variance inflation factor.
  double robust_inflation_cap = 1e4;
  /// PSD-repair jitter cap for posterior covariance sampling
  /// (sample_joint); the jitter actually applied is recorded in
  /// diagnostics().posterior_jitter.
  double posterior_max_jitter = 1e-2;
  /// Hot path for the decision loop. update() of a batch inside the input
  /// box extends the cached Cholesky factor by the new inputs in O(d²)
  /// when they are all new (d = distinct inputs), or re-solves the
  /// ≤ d-row system without rescaling or MLE when the batch repeats an
  /// input. posterior() keeps a cross-covariance workspace that is reused
  /// (and incrementally extended) across calls over the same query set.
  /// All of it is bit-for-bit identical to the full recomputation and
  /// falls back to it automatically whenever exactness cannot be
  /// guaranteed — see diagnostics().incremental_fallbacks for when that
  /// happens.
  bool incremental = true;
  /// Drift detection for continual learning: a CUSUM statistic over the
  /// standardized prediction residuals of incoming update() rows, scored
  /// against the posterior *before* they are incorporated. Each row
  /// contributes max(0, S + |z| − k) to the running score S; when S
  /// exceeds `drift_cusum_h` the detector fires: every pre-existing
  /// training row's noise variance is inflated by
  /// `drift_forget_inflation` (selective forgetting — stale observations
  /// are down-weighted, never evicted) and the system is re-solved
  /// *without* re-optimizing hyperparameters. A fire with `reoptimize`
  /// requested still runs the full MLE rebuild (which supersedes the
  /// forgetting). drift_cusum_h == 0 disables the detector entirely
  /// (default; bit-for-bit no-op).
  double drift_cusum_h = 0.0;
  /// CUSUM drift allowance k: |z| below it decays the score. The default
  /// sits above the folded-normal mean E|z| ≈ 0.8, so a stationary stream
  /// decays the score instead of creeping it upward.
  double drift_cusum_k = 1.0;
  /// Noise-variance inflation applied to pre-drift rows on a fire
  /// (bounded by robust_inflation_cap).
  double drift_forget_inflation = 4.0;
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
  /// Drift-detector (CUSUM) fires since the last fit().
  std::size_t drift_fires = 0;
  /// Training rows down-weighted by drift forgetting (cumulative over
  /// fires; a row hit twice counts twice).
  std::size_t drift_downweighted = 0;
  /// Current CUSUM score (resets to 0 on a fire).
  double drift_score = 0.0;
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
  /// additionally updated by sample_joint (hence mutable state).
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

  /// Draw `num_samples` joint samples of the latent function at `x`.
  /// Result is (num_samples × x.size()).
  [[nodiscard]] la::Matrix sample_joint(
      const std::vector<std::vector<double>>& x, std::size_t num_samples,
      Rng& rng) const;

  /// sample_joint with the standard normals supplied by the caller: row s
  /// of `z` (num_samples × x.size()) drives sample s. Lets callers pre-draw
  /// the randomness serially in a fixed order and run the deterministic
  /// colouring transform in parallel — sample_joint(x, S, rng) is exactly
  /// sample_joint_given(x, z) with z filled row-major from `rng`.
  [[nodiscard]] la::Matrix sample_joint_given(
      const std::vector<std::vector<double>>& x, const la::Matrix& z) const;

  /// Log marginal likelihood of the standardized data (every row, unit
  /// noise weights) under `params`, computed on the distinct inputs.
  [[nodiscard]] double log_marginal_likelihood(
      const KernelParams& params) const;

  /// Serialize the source of truth as deterministic JSON: the raw rows,
  /// their noise scales, the hyperparameters, diagnostics counters, and
  /// the CUSUM score. Everything else (scaling, distinct rows, factor,
  /// alpha, posterior workspace) is a deterministic function of these.
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild the fitted state from snapshot() by re-deriving the scaling,
  /// the distinct rows, the factor and alpha with one solve (no MLE). The
  /// regressor must have been constructed with the same GpOptions as the
  /// snapshotted one; after restore, every prediction, sample, and
  /// incremental update is bit-for-bit identical to the original
  /// instance's. All-or-nothing: a snapshot that fails a check throws and
  /// leaves this instance untouched. Snapshots that also carry the derived
  /// keys (x, y, chol, alpha, ...) restore the same way; those keys are
  /// ignored.
  void restore(const obs::json::Value& snap);

 private:
  /// Cross-covariance workspace reused by posterior() across calls over
  /// the same query set. `key` fingerprints the scaled query rows (with an
  /// exact row comparison against `xs` to rule out hash collisions);
  /// `factor_epoch` ties V to the factor it was computed against, and
  /// `train_rows` lets an incrementally-extended factor extend k_cross/V
  /// by the new training rows instead of recomputing them.
  struct PosteriorWorkspace {
    bool valid = false;
    std::uint64_t key = 0;
    std::uint64_t factor_epoch = 0;
    std::size_t train_rows = 0;
    std::vector<std::vector<double>> xs;  // scaled query rows
    la::Matrix k_cross;                   // m × n
    la::Matrix k_test;                    // m × m
    la::Matrix v;                         // n × m, V = L⁻¹ K*ᵀ
  };

  /// Unit-weight sufficient statistics of the standardized targets per
  /// distinct input: the hyperparameter MLE's view of the data.
  struct GroupMoments {
    la::Vector count;            // m_i
    la::Vector mean;             // ȳ_i
    double log_count_sum = 0.0;  // Σ_i log m_i
    double within_ss = 0.0;      // Σ_i Σ_{j∈i} (y_j − ȳ_i)²
  };

  void rebuild(bool optimize_hyperparams);
  /// Extend the cached factor by the distinct inputs from `first_new` on
  /// (all of them fresh, each with weight 1). Returns false when the
  /// extension would not be bit-identical to a full rebuild (see
  /// GpOptions::incremental); callers then rebuild.
  bool try_incremental_update(std::size_t first_new);
  /// Bring workspace_ up to date for the scaled query rows `xs`.
  void refresh_posterior_workspace(std::vector<std::vector<double>>&& xs) const;
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
  [[nodiscard]] GroupMoments unit_moments() const;
  /// Log marginal likelihood of every row under `params`: the distinct-row
  /// GP with noise σ²/m_i plus the closed-form within-group term.
  [[nodiscard]] double lml(const GroupMoments& moments,
                           const KernelParams& params) const;
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
  /// Selective refit after a drift fire: redo the input scaling and target
  /// standardization over all rows and re-solve with the *current*
  /// noise_scale_, so the forgetting survives. Hyperparameters are never
  /// re-optimized here — skipping the MLE is exactly the cost the detector
  /// avoids.
  void refit_keep_noise();
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
  // fit or drift forgetting inflated the row).
  std::vector<std::vector<double>> x_raw_;
  std::vector<double> y_raw_;
  std::vector<double> noise_scale_;
  KernelParams params_;
  // Running CUSUM score of the drift detector (see GpOptions).
  double drift_cusum_ = 0.0;
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
  // Prediction scratch: contents are dead between calls.
  // pamo-analyze: allow(snapshot-coverage)
  mutable PosteriorWorkspace workspace_;
};

}  // namespace pamo::gp
