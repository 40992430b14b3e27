// Exact Gaussian process regression over a finite input set, with MLE
// hyperparameters (Rasmussen & Williams, 2006, ch. 2, on a finite index
// set).
//
// The model is built with its input set, the grid, and never leaves it:
// every observation and every query sits at a grid point, named by its
// index. The grid is min-max scaled to [0, 1] per dimension once, at
// construction, so that lengthscale priors and boxes are dimensionless;
// targets are standardized internally (zero mean, unit variance).
// Whenever the hyperparameters are set (by MLE, from fixed_params or by
// restore) the model forms one kernel table over the grid, K_grid. The
// training system, the cross-covariances and the prior covariance of a
// posterior are index slices of it, so no posterior or update evaluates a
// kernel. Hyperparameters are fit by multi-start projected BFGS on the
// negative log marginal likelihood and its analytic gradient
// (gp/mle.hpp). Predictions are on the original target scale.
//
// The model stores no observation rows. Each observed grid point is a
// cell of sufficient statistics: the unit-weight count, mean and M2 of
// its targets (what the standardization and the MLE read), and its weight
// W_i = Σ_j 1/λ_j with the W-weighted mean target (what the solve reads),
// because Π_j N(y_j; f_i, σ²λ_j) = N(ȳ_i; f_i, σ²/W_i) × (a term free of
// f). So the model pays for at most |grid| cells in memory, in every
// solve, marginal-likelihood evaluation and posterior, and in every
// snapshot, however many observations it has fed in.
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
  /// A model over `grid`: at least one row, every row of one width ≥ 1,
  /// finite and distinct from the others.
  explicit GpRegressor(std::vector<std::vector<double>> grid,
                       GpOptions options = {});

  /// Fit to the targets `y` observed at grid points `at` (indices into the
  /// grid). Requires at least 2 observations. Refitting replaces previous
  /// data.
  void fit(std::vector<std::size_t> at, std::vector<double> y);

  /// Add observations: they fold into their cells and the system is
  /// re-solved over the cells. The hyperparameters stay; only fit()
  /// chooses them.
  void update(const std::vector<std::size_t>& at,
              const std::vector<double>& y);

  [[nodiscard]] bool is_fit() const { return !cell_.empty(); }
  /// Observations folded in (repeats included).
  [[nodiscard]] std::size_t num_points() const;
  /// Observed grid points (cells) the system is solved on
  /// (≤ num_points()).
  [[nodiscard]] std::size_t num_distinct() const { return cell_.size(); }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  /// The input set, as given to the constructor.
  [[nodiscard]] const std::vector<std::vector<double>>& grid() const {
    return grid_;
  }
  [[nodiscard]] const KernelParams& params() const { return params_; }

  /// Robustness bookkeeping since the last fit(). posterior_jitter is
  /// additionally updated by sample_joint_given (hence mutable state).
  [[nodiscard]] const GpFitDiagnostics& diagnostics() const {
    return diagnostics_;
  }

  /// Posterior mean at grid point `g` (original target scale).
  [[nodiscard]] double predict_mean(std::size_t g) const;

  /// Joint posterior over the whole grid, in grid order.
  [[nodiscard]] Posterior posterior() const;

  /// Joint samples of the latent function over the grid, driven by
  /// standard normals the caller supplies: row s of `z`
  /// (num_samples × |grid|) drives sample s, and the result is
  /// (num_samples × |grid|). Callers pre-draw the randomness serially in a
  /// fixed order; the deterministic colouring transform then runs in
  /// parallel.
  [[nodiscard]] la::Matrix sample_joint_given(const la::Matrix& z) const;

  /// Log marginal likelihood of the standardized data (every observation,
  /// unit noise weights) under `params`, computed on the cells.
  [[nodiscard]] double log_marginal_likelihood(
      const KernelParams& params) const;

  /// Serialize the source of truth as deterministic JSON: the cells (each
  /// with its raw grid input), the hyperparameters and the diagnostics
  /// counters. Its size depends on the number of cells, not of
  /// observations. Everything else (standardization, kernel table, factor,
  /// alpha) is a deterministic function of these and the grid.
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild the fitted state from snapshot() by re-deriving the
  /// standardization, the kernel table, the factor and alpha with one
  /// solve (no MLE). The regressor must have been constructed with the
  /// same grid and GpOptions as the snapshotted one; after restore, every
  /// prediction, sample, and update is bit-for-bit identical to the
  /// original instance's. Each cell's input must be a grid point.
  /// All-or-nothing: a snapshot that fails a check throws and leaves this
  /// instance untouched. Snapshots of builds that stored every row
  /// (x_raw, y_raw, noise_scale) restore by folding those rows, each at a
  /// grid point, into their cells with weight 1/λ; their derived keys (x,
  /// y, chol, alpha, ...), the retired drift-detector keys and the retired
  /// update-path counters are ignored.
  void restore(const obs::json::Value& snap);

 private:
  /// The observations of one fit()/update() call, alive only during it:
  /// their cells, raw targets and noise scales λ_j (1 until a robust round
  /// inflates one), over the cells' weighted statistics from before the
  /// call, plus the earlier rows a robust round pulled out of them.
  struct Batch {
    std::vector<std::size_t> cell;
    std::vector<double> y;
    std::vector<double> noise_scale;
    std::vector<double> base_weight;
    std::vector<double> base_wmean;
  };

  /// The one path of fit() (on emptied cells) and update(): fold the
  /// observations into their cells, re-standardize, choose the
  /// hyperparameters when `choose_params` (the fixed ones, or by MLE),
  /// solve, then run the robust rounds over these observations.
  void absorb(const std::vector<std::size_t>& at, const std::vector<double>& y,
              bool choose_params);
  /// Set params_ to the fixed hyperparameters or fit them by MLE, then
  /// form the kernel table.
  void choose_hyperparams();
  /// K_grid under params_.
  void form_kernel_table();
  /// Index of the cell at grid point `g`, appending an empty cell if new.
  std::size_t cell_of(std::size_t g);
  /// Index of the grid point equal to `x`; throws when there is none.
  [[nodiscard]] std::size_t grid_index(const std::vector<double>& x) const;
  /// The scaled grid inputs of the cells, in cell order.
  [[nodiscard]] std::vector<std::vector<double>> cell_inputs() const;
  /// Chan/Welford: fold one target into a cell's unit-weight moments.
  void fold_unit(std::size_t cell, double y);
  /// Fold one target with weight w = 1/λ into a cell's W and W-mean.
  void fold_weight(std::size_t cell, double y, double w);
  /// Merge the cells' unit moments into the global target mean and
  /// standard deviation.
  void standardize();
  /// Every cell's W and W-mean: its statistics from before the batch,
  /// then the batch rows at their current noise scales. Then the targets
  /// of the solve.
  void fold_weights(const Batch& batch);
  /// ȳ_i of the solve: each cell's W-weighted mean, standardized.
  void standardize_targets();
  /// Factorize K_grid over the cells + σ²·diag(1/W_i) and solve for
  /// alpha_, recovering from Cholesky failures by widening the jitter cap.
  void solve_system();
  /// Unit-weight sufficient statistics of the standardized targets per
  /// cell: the hyperparameter MLE's view of the data.
  [[nodiscard]] mle::GroupMoments unit_moments() const;
  /// The solved system covers every cell (postcondition of
  /// fit()/update()).
  [[nodiscard]] bool solved_over_all_cells() const {
    const std::size_t n = cell_.size();
    return count_.size() == n && mean_.size() == n && m2_.size() == n &&
           weight_.size() == n && wmean_.size() == n && hi_.size() == n &&
           lo_.size() == n && alpha_.size() == n;
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
  /// Reject indices off the grid, then drop non-finite targets
  /// (reject_nonfinite; returns how many) or reject them loudly.
  std::size_t sanitize(std::vector<std::size_t>& at,
                       std::vector<double>& y) const;

  // Construction-time configuration, re-supplied by the ctor on restore:
  // the options, the grid as given, and scaled by its own per-dimension
  // min-max.
  // pamo-analyze: allow(snapshot-coverage)
  GpOptions options_;
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<std::vector<double>> grid_;
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<std::vector<double>> scaled_grid_;
  std::size_t dim_ = 0;

  // Source of truth: one cell per observed grid point, in first-occurrence
  // order: its grid index, the unit-weight count, mean and M2 of its
  // targets, and its weight W = Σ_j 1/λ_j with the W-weighted mean target
  // (original scale; λ_j ≥ 1 is 1 unless the robust fit inflated row j).
  std::vector<std::size_t> cell_;
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
  // Target standardization.
  // pamo-analyze: allow(snapshot-coverage)
  double y_mean_ = 0.0, y_std_ = 1.0;
  // The standardized W-weighted mean ȳ_i of each cell.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<double> y_;
  // K_grid: the noise-free kernel over every pair of grid points under
  // params_ (|grid| × |grid|).
  // pamo-analyze: allow(snapshot-coverage)
  la::Matrix k_grid_;
  // pamo-analyze: allow(snapshot-coverage)
  std::optional<la::Cholesky> chol_;
  // (K_cells + σ²·diag(1/W))⁻¹ ȳ
  // pamo-analyze: allow(snapshot-coverage)
  la::Vector alpha_;
};

}  // namespace pamo::gp
