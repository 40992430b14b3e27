// Gaussian-process preference learning from pairwise comparisons
// (Chu & Ghahramani, ICML 2005 — reference [6] of the paper, §4.2).
//
// The latent utility g over outcome vectors has a GP prior; each observed
// comparison y⁽¹⁾ ≻ y⁽²⁾ contributes a probit likelihood
// Φ((g(y⁽¹⁾) − g(y⁽²⁾)) / (√2 λ)) (Eq. 9). The posterior over g at the
// training points is approximated with a Laplace approximation (Newton
// iterations for the MAP, Hessian as posterior precision); prediction at
// new outcome vectors follows the standard Laplace-GP formulas. The model
// outputs *relative* utilities — only orderings are identified, which is
// all the scheduler needs (§5.3).
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "la/cholesky.hpp"
#include "obs/json.hpp"

namespace pamo::pref {

/// A comparison: items.first ≻ items.second (indices into the point set).
using ComparisonPair = std::pair<std::size_t, std::size_t>;

struct PreferenceGpOptions {
  gp::KernelType kernel = gp::KernelType::kRbf;
  /// Kernel lengthscale in the (normalized, [0,1]^k) outcome space.
  double lengthscale = 1.2;
  double signal_var = 1.0;
  /// Comparison noise λ of the probit likelihood (Eq. 9).
  double lambda = 0.10;
  std::size_t max_newton_iters = 60;
  double newton_tol = 1e-9;
  /// Tolerate inconsistent oracle answers: a comparison contradicted by
  /// another pair (directly, or through an intransitive chain w ≻ l while
  /// l ≻ c ≻ w) gets its effective λ inflated by `inconsistency_penalty`
  /// instead of corrupting the MAP fit at full weight. Off by default —
  /// every pair then carries identical weight (bit-for-bit unchanged).
  bool downweight_inconsistent = false;
  /// λ multiplier for flagged pairs (>1 softens their likelihood).
  double inconsistency_penalty = 4.0;
};

class PreferenceGp {
 public:
  explicit PreferenceGp(PreferenceGpOptions options = {});

  /// Fit to `points` (outcome vectors) with comparisons `pairs`, each
  /// asserting points[first] ≻ points[second]. Replaces previous data.
  void fit(std::vector<std::vector<double>> points,
           std::vector<ComparisonPair> pairs);

  /// Add new points/pairs (pair indices refer to the *combined* point set)
  /// and re-run the Laplace approximation from a warm start.
  void update(const std::vector<std::vector<double>>& points,
              const std::vector<ComparisonPair>& pairs);

  [[nodiscard]] bool is_fit() const { return !points_.empty(); }
  [[nodiscard]] std::size_t num_points() const { return points_.size(); }
  [[nodiscard]] std::size_t num_pairs() const { return pairs_.size(); }
  /// Comparisons flagged as contradictory in the latest fit (0 unless
  /// downweight_inconsistent is on).
  [[nodiscard]] std::size_t num_inconsistent_pairs() const {
    return num_inconsistent_;
  }

  /// Posterior mean/covariance of the latent utility at `y`.
  [[nodiscard]] gp::Posterior posterior(
      const std::vector<std::vector<double>>& y) const;

  /// Posterior mean utility of a single outcome vector.
  [[nodiscard]] double utility_mean(const std::vector<double>& y) const;

  /// Joint posterior samples of the utility at `y` (num_samples × |y|).
  [[nodiscard]] la::Matrix sample_joint(
      const std::vector<std::vector<double>>& y, std::size_t num_samples,
      Rng& rng) const;

  /// MAP latent utilities at the training points.
  [[nodiscard]] const la::Vector& map_utilities() const { return g_map_; }

  /// Serialize the full posterior state (points, pairs, pair weights, the
  /// MAP solution, both Cholesky factors) as deterministic JSON. Restoring
  /// skips the Laplace iteration entirely — the exact factors come back,
  /// so posterior()/sample_joint() are bit-identical after the round-trip.
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild from snapshot(). Must be constructed with the same
  /// PreferenceGpOptions as the snapshotted instance.
  void restore(const obs::json::Value& snap);

 private:
  void laplace();
  /// Per-pair probit precision 1/(√2·λ_p); flags contradicted pairs and
  /// softens their λ when downweight_inconsistent is on.
  void compute_pair_weights();

  // Construction-time configuration, re-supplied by the ctor on restore.
  // pamo-analyze: allow(snapshot-coverage)
  PreferenceGpOptions options_;
  gp::KernelParams params_;
  // Derived from options_.kernel and params_; rebuilt by fit and restore.
  // pamo-analyze: allow(snapshot-coverage)
  std::optional<gp::KernelEvaluator> kernel_;

  std::vector<std::vector<double>> points_;
  std::vector<ComparisonPair> pairs_;
  std::vector<double> pair_inv_noise_;
  std::size_t num_inconsistent_ = 0;

  la::Vector g_map_;          // MAP latent utilities
  la::Matrix w_;              // negative log-likelihood Hessian at the MAP
  std::optional<la::Cholesky> k_chol_;   // chol(K + εI)
  std::optional<la::Cholesky> b_chol_;   // chol(K⁻¹ + W)
  la::Vector kinv_g_;         // K⁻¹ g_map (predictive-mean weights)
};

}  // namespace pamo::pref
