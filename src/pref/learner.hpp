// Comparison-based preference learning (§4.2) with EUBO pair selection.
//
// Each round, the learner scores candidate comparison pairs with the
// Expected Utility of the Best Option (EUBO, Lin et al. 2022 — Eq. 11),
// asks the decision-maker the winning question, and updates the preference
// GP with the answer. EUBO has a closed form under the joint Gaussian
// posterior: E[max(g₁, g₂)] = μ₁Φ(d) + μ₂Φ(−d) + θ φ(d) with
// θ² = Var[g₁ − g₂], d = (μ₁ − μ₂)/θ.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "pref/oracle.hpp"
#include "pref/preference_gp.hpp"

namespace pamo::pref {

/// Closed-form E[max(g1, g2)] for a bivariate Gaussian.
double expected_max_gaussian(double mean1, double mean2, double var1,
                             double var2, double cov);

struct LearnerOptions {
  PreferenceGpOptions model;
  /// Number of random candidate pairs scored per round.
  std::size_t pairs_per_round = 200;
  /// When false, pick comparison pairs uniformly at random (the ablation
  /// contrast for Figure 9's EUBO-vs-random series).
  bool use_eubo = true;
};

/// Drives rounds of (select pair → query oracle → update model) over a
/// pool of candidate outcome vectors.
///
/// The pool is only the EUBO candidate set. The model is fit on the
/// compared points alone, in the order each first appears in a comparison:
/// a point no comparison references carries no likelihood term, so leaving
/// it out changes neither the MAP nor any prediction, and EUBO evaluates it
/// as a test point instead. Until the first comparison the model is the
/// prior over the whole pool, which predicts 0 everywhere.
class PreferenceLearner {
 public:
  PreferenceLearner(std::vector<std::vector<double>> candidate_outcomes,
                    LearnerOptions options, std::uint64_t seed);

  /// Run `num_comparisons` query rounds against the oracle.
  void run(PreferenceOracle& oracle, std::size_t num_comparisons);

  /// Add one externally obtained comparison (indices into the pool) and
  /// refit the model cold.
  void add_comparison(ComparisonPair pair);

  /// Append candidate outcome vectors (e.g. newly observed outcomes from
  /// the BO loop); returns the index of the first appended point. The model
  /// is untouched until a comparison references one of them.
  std::size_t extend_pool(const std::vector<std::vector<double>>& outcomes);

  /// Bound the pool for long-running (churned) lineages: keep the first
  /// `keep_anchor` points (the anchor pool the operator's interview was
  /// run over) and the most recent extensions up to `max_points` total,
  /// dropping the *oldest* extensions in between. Comparisons touching a
  /// dropped point are discarded; survivors are re-indexed and the model
  /// refit. No-op (and no refit) when the pool already fits. Returns the
  /// number of pool points dropped.
  std::size_t compact_pool(std::size_t max_points, std::size_t keep_anchor);

  /// Serialize the learner's persistent state: the candidate pool, every
  /// comparison asked so far, the pair-selection RNG mid-stream, the
  /// fitted preference model, and the pool index of each model row.
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild from snapshot(), replacing pool, pairs, RNG, and model. The
  /// learner must have been constructed with the same LearnerOptions; the
  /// construction-time pool and seed are overwritten. After restore, the
  /// next run() asks bit-identical queries to the original instance. A
  /// snapshot without model rows (the model then holds the whole pool, in
  /// pool order) restores with the identity map.
  void restore(const obs::json::Value& snap);

  [[nodiscard]] const PreferenceGp& model() const { return model_; }
  [[nodiscard]] const std::vector<std::vector<double>>& pool() const {
    return pool_;
  }
  [[nodiscard]] std::size_t num_comparisons() const { return pairs_.size(); }

 private:
  /// Cold fit on the compared points (the prior over the pool when there
  /// are no comparisons).
  void refit();
  /// Record one answered comparison with a warm-started model update.
  void absorb(ComparisonPair pair);
  /// Model row of pool point `index`, appending it to the model rows (and
  /// its outcome vector to `fresh`) when it has none yet.
  std::size_t model_row(std::size_t index,
                        std::vector<std::vector<double>>& fresh);

  std::vector<std::vector<double>> pool_;
  std::vector<ComparisonPair> pairs_;
  // Pool index of each model row.
  std::vector<std::size_t> model_points_;
  // Construction-time configuration, re-supplied by the ctor on restore.
  // pamo-analyze: allow(snapshot-coverage)
  LearnerOptions options_;
  PreferenceGp model_;
  Rng rng_;
};

}  // namespace pamo::pref
