// Exact Gaussian process regression with MLE hyperparameters.
//
// Targets are standardized internally (zero mean, unit variance); inputs
// are min-max scaled to [0, 1] per dimension so that lengthscale priors and
// boxes are dimensionless. Hyperparameters are fit by multi-start
// projected BFGS on the negative log marginal likelihood and its analytic
// gradient (gp/mle.hpp). predict() returns the posterior on the original
// target scale.
//
// The model stores no observation rows. Each distinct input is a cell of
// sufficient statistics: the unit-weight count, mean and M2 of its
// targets (what the standardization and the MLE read), and its weight
// W_i = Σ_j 1/λ_j with the W-weighted mean target (what the solve reads),
// because Π_j N(y_j; f_i, σ²λ_j) = N(ȳ_i; f_i, σ²/W_i) × (a term free of
// f). So a caller on a finite grid pays for at most |grid| cells in
// memory, in every solve, marginal-likelihood evaluation and posterior,
// and in every snapshot, however many observations it has fed in.
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
  /// kRobustInflationCap. The rounds reweight the rows of the
  /// fit()/update() call in hand, plus each cell's largest and smallest
  /// earlier full-weight target, which a later posterior may flag; a
  /// flagged row keeps its factor once it has folded into its cell.
  bool robust_noise = false;
  double robust_threshold = 3.0;
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

  /// Add observations: they fold into their cells and the system is
  /// re-solved over the cells. The hyperparameters stay; only fit()
  /// chooses them.
  void update(const std::vector<std::vector<double>>& x,
              const std::vector<double>& y);

  [[nodiscard]] bool is_fit() const { return !cell_x_.empty(); }
  /// Observations folded in (repeats included).
  [[nodiscard]] std::size_t num_points() const;
  /// Distinct inputs (cells) the system is solved on (≤ num_points()).
  [[nodiscard]] std::size_t num_distinct() const { return cell_x_.size(); }
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

  /// Log marginal likelihood of the standardized data (every observation,
  /// unit noise weights) under `params`, computed on the cells.
  [[nodiscard]] double log_marginal_likelihood(
      const KernelParams& params) const;

  /// Serialize the source of truth as deterministic JSON: the cells, the
  /// hyperparameters and the diagnostics counters. Its size depends on
  /// the number of cells, not of observations. Everything else (scaling,
  /// standardization, factor, alpha, kernel tables) is a deterministic
  /// function of these.
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild the fitted state from snapshot() by re-deriving the scaling,
  /// the standardization, the factor and alpha with one solve (no MLE).
  /// The regressor must have been constructed with the same GpOptions as
  /// the snapshotted one; after restore, every prediction, sample, and
  /// update is bit-for-bit identical to the original instance's.
  /// All-or-nothing: a snapshot that fails a check throws and leaves this
  /// instance untouched. Snapshots of builds that stored every row
  /// (x_raw, y_raw, noise_scale) restore by folding those rows into their
  /// cells, each with weight 1/λ; their derived keys (x, y, chol, alpha,
  /// ...), the retired drift-detector keys and the retired update-path
  /// counters are ignored.
  void restore(const obs::json::Value& snap);

 private:
  /// Cross-covariance workspace reused by posterior() across calls over
  /// the same query set. `key` fingerprints the scaled query rows (with an
  /// exact row comparison against `xs` to rule out hash collisions).
  /// k_cross and k_test hold while `kernel_epoch` is current: their
  /// entries over the first `train_rows` cells are unchanged, so new cells
  /// only append columns to k_cross. V is solved again whenever the factor
  /// has changed since (`factor_epoch`).
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

  /// The rows of one fit()/update() call, alive only during it: their
  /// cells, raw targets and noise scales λ_j (1 until a robust round
  /// inflates one), over the cells' weighted statistics from before the
  /// call, plus the earlier rows a robust round pulled out of them.
  struct Batch {
    std::vector<std::size_t> cell;
    std::vector<double> y;
    std::vector<double> noise_scale;
    std::vector<double> base_weight;
    std::vector<double> base_wmean;
  };

  /// The one path of fit() (on emptied cells) and update(): fold the rows
  /// into their cells, rescale when the input box grew, re-standardize,
  /// choose the hyperparameters when `choose_params` (the fixed ones, or
  /// by MLE), solve, then run the robust rounds over these rows.
  void absorb(const std::vector<std::vector<double>>& x,
              const std::vector<double>& y, bool choose_params);
  /// Set params_ to the fixed hyperparameters or fit them by MLE.
  void choose_hyperparams();
  /// Index of the cell at raw input `x`, appending an empty cell if new.
  std::size_t cell_of(const std::vector<double>& x);
  /// Chan/Welford: fold one target into a cell's unit-weight moments.
  void fold_unit(std::size_t cell, double y);
  /// Fold one target with weight w = 1/λ into a cell's W and W-mean.
  void fold_weight(std::size_t cell, double y, double w);
  /// Min-max box over the cell inputs and the scaled inputs x_: every
  /// cell is rescaled when the box moved, otherwise only cells new since
  /// the last call are scaled. Bumps kernel_epoch_ when the box moved.
  void derive_inputs();
  /// Merge the cells' unit moments into the global target mean and
  /// standard deviation.
  void standardize();
  /// Every cell's W and W-mean: its statistics from before the batch,
  /// then the batch rows at their current noise scales. Then the targets
  /// of the solve.
  void fold_weights(const Batch& batch);
  /// ȳ_i of the solve: each cell's W-weighted mean, standardized.
  void standardize_targets();
  /// Factorize K(x_, x_) + σ²·diag(1/W_i) and solve for alpha_,
  /// recovering from Cholesky failures by widening the jitter cap.
  void solve_system();
  /// Unit-weight sufficient statistics of the standardized targets per
  /// cell: the hyperparameter MLE's view of the data.
  [[nodiscard]] mle::GroupMoments unit_moments() const;
  /// The solved system covers every cell (postcondition of
  /// fit()/update()).
  [[nodiscard]] bool solved_over_all_cells() const {
    const std::size_t n = cell_x_.size();
    return count_.size() == n && mean_.size() == n && m2_.size() == n &&
           weight_.size() == n && wmean_.size() == n && hi_.size() == n &&
           lo_.size() == n && x_.size() == n && alpha_.size() == n;
  }
  /// One pass of iteratively reweighted noise over the batch: inflate the
  /// noise scales of rows with large standardized residuals, then re-fold
  /// and re-solve; the cells' extremes are judged in the same round.
  /// Returns false (leaving the solve untouched, bit-for-bit) when no
  /// residual crosses the threshold.
  bool reweight_outliers(Batch& batch);
  bool inflate_outliers(Batch& batch);
  /// Move each cell extreme whose residual crosses the threshold out of
  /// the base statistics into the batch at λ = 1, and clear its slot.
  void pull_extremes(Batch& batch);
  [[nodiscard]] double robust_z(std::size_t cell, double y,
                                double lambda) const;
  /// Record the batch's full-weight targets as their cells' extremes.
  void note_extremes(const Batch& batch);
  /// Drop non-finite rows (reject_nonfinite) or reject them loudly.
  void sanitize(std::vector<std::vector<double>>& x, std::vector<double>& y);
  [[nodiscard]] std::vector<double> scale_input(
      const std::vector<double>& x) const;
  /// Bring workspace_ up to date for the scaled query rows `xs`.
  void refresh_posterior_workspace(std::vector<std::vector<double>>&& xs) const;
  /// The noise-free Gram K(x_, x_) under params_: gram_ extended by the
  /// entries of cells appended since it was computed, or recomputed when
  /// kernel_epoch_ has moved on.
  const la::Matrix& training_gram();

  // Construction-time configuration, re-supplied by the ctor on restore.
  // pamo-analyze: allow(snapshot-coverage)
  GpOptions options_;
  std::size_t dim_ = 0;

  // Source of truth: one cell per distinct raw input, in first-occurrence
  // order. The unit-weight count, mean and M2 of its targets, and its
  // weight W = Σ_j 1/λ_j with the W-weighted mean target (original scale;
  // λ_j ≥ 1 is 1 unless the robust fit inflated row j).
  std::vector<std::vector<double>> cell_x_;
  std::vector<double> count_;
  std::vector<double> mean_;
  std::vector<double> m2_;
  std::vector<double> weight_;
  std::vector<double> wmean_;
  // Robust fit only: the largest and smallest target among the cell's
  // full-weight (λ = 1) rows, the ones a later posterior flags first
  // (−∞ / +∞ when none is known: a pulled extreme's slot waits for the
  // next full-weight row).
  std::vector<double> hi_;
  std::vector<double> lo_;
  KernelParams params_;
  mutable GpFitDiagnostics diagnostics_;

  // Everything below is derived from the members above; restore()
  // re-derives it with one solve instead of reading it back.
  // Input scaling (min-max per dimension) and target standardization.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<double> x_lo_, x_hi_;
  // pamo-analyze: allow(snapshot-coverage)
  double y_mean_ = 0.0, y_std_ = 1.0;
  // The cell inputs, scaled.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<std::vector<double>> x_;
  // The standardized W-weighted mean ȳ_i of each cell.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<double> y_;
  // pamo-analyze: allow(snapshot-coverage)
  std::optional<la::Cholesky> chol_;
  // (K_d + σ²·diag(1/W))⁻¹ ȳ
  // pamo-analyze: allow(snapshot-coverage)
  la::Vector alpha_;
  // Bumped by every factorization (solve_system); the posterior
  // workspace re-solves V when it has moved on.
  // pamo-analyze: allow(snapshot-coverage)
  std::uint64_t factor_epoch_ = 0;
  // Bumped when a kernel entry over x_ may have changed: new lengthscales
  // or signal variance, or a grown input box that rescales every cell.
  // Within one value, every kernel table over a prefix of x_ stays exact.
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
