#include "pref/learner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/normal.hpp"
#include "obs/obs.hpp"

namespace pamo::pref {

namespace {
/// One round in kExploreEvery is a uniformly random pair instead of the
/// EUBO argmax. EUBO concentrates queries around the incumbent best
/// option; a little forced exploration keeps the *global* ordering
/// calibrated (what Figure 9 measures) at negligible cost to best-option
/// identification.
constexpr std::size_t kExploreEvery = 3;
}  // namespace

double expected_max_gaussian(double mean1, double mean2, double var1,
                             double var2, double cov) {
  const double theta2 = std::max(0.0, var1 + var2 - 2.0 * cov);
  if (theta2 < 1e-18) return std::max(mean1, mean2);
  const double theta = std::sqrt(theta2);
  const double d = (mean1 - mean2) / theta;
  return mean1 * normal_cdf(d) + mean2 * normal_cdf(-d) +
         theta * normal_pdf(d);
}

PreferenceLearner::PreferenceLearner(
    std::vector<std::vector<double>> candidate_outcomes, LearnerOptions options,
    std::uint64_t seed)
    : pool_(std::move(candidate_outcomes)),
      options_(options),
      model_(options.model),
      rng_(seed) {
  PAMO_CHECK(pool_.size() >= 2, "preference learning needs >= 2 candidates");
  refit();
}

std::size_t PreferenceLearner::model_row(
    std::size_t index, std::vector<std::vector<double>>& fresh) {
  const auto it = std::find(model_points_.begin(), model_points_.end(), index);
  if (it != model_points_.end()) {
    return static_cast<std::size_t>(it - model_points_.begin());
  }
  model_points_.push_back(index);
  fresh.push_back(pool_[index]);
  return model_points_.size() - 1;
}

void PreferenceLearner::refit() {
  model_points_.clear();
  if (pairs_.empty()) {
    model_points_.resize(pool_.size());
    std::iota(model_points_.begin(), model_points_.end(), std::size_t{0});
    model_.fit(pool_, {});
    return;
  }
  std::vector<std::vector<double>> points;
  std::vector<ComparisonPair> rows;
  rows.reserve(pairs_.size());
  for (const auto& [winner, loser] : pairs_) {
    const std::size_t w = model_row(winner, points);
    rows.emplace_back(w, model_row(loser, points));
  }
  model_.fit(std::move(points), std::move(rows));
}

void PreferenceLearner::absorb(ComparisonPair pair) {
  pairs_.push_back(pair);
  // The first comparison replaces the prior-only fit over the whole pool.
  if (model_.num_pairs() == 0) {
    refit();
    return;
  }
  std::vector<std::vector<double>> fresh;
  const std::size_t w = model_row(pair.first, fresh);
  const std::size_t l = model_row(pair.second, fresh);
  model_.update(fresh, {{w, l}});
}

void PreferenceLearner::add_comparison(ComparisonPair pair) {
  PAMO_CHECK(pair.first < pool_.size() && pair.second < pool_.size(),
             "comparison index out of range");
  pairs_.push_back(pair);
  refit();
}

std::size_t PreferenceLearner::extend_pool(
    const std::vector<std::vector<double>>& outcomes) {
  const std::size_t first = pool_.size();
  pool_.insert(pool_.end(), outcomes.begin(), outcomes.end());
  return first;
}

std::size_t PreferenceLearner::compact_pool(std::size_t max_points,
                                            std::size_t keep_anchor) {
  PAMO_CHECK(max_points >= 2 && keep_anchor <= max_points,
             "compact_pool needs keep_anchor <= max_points and >= 2 kept");
  if (pool_.size() <= max_points) return 0;
  keep_anchor = std::min(keep_anchor, pool_.size());
  // Survivors: the anchor prefix plus the newest extensions; the dropped
  // middle is the oldest BO-loop history, whose evidence the model keeps
  // only through comparisons that never referenced it.
  const std::size_t keep_recent = max_points - keep_anchor;
  const std::size_t drop_begin = keep_anchor;
  const std::size_t drop_end = pool_.size() - keep_recent;
  std::vector<std::size_t> remap(pool_.size(), SIZE_MAX);
  std::vector<std::vector<double>> kept;
  kept.reserve(max_points);
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (i >= drop_begin && i < drop_end) continue;
    remap[i] = kept.size();
    kept.push_back(std::move(pool_[i]));
  }
  const std::size_t dropped = pool_.size() - kept.size();
  pool_ = std::move(kept);
  std::vector<ComparisonPair> surviving;
  surviving.reserve(pairs_.size());
  for (const auto& [winner, loser] : pairs_) {
    if (remap[winner] == SIZE_MAX || remap[loser] == SIZE_MAX) continue;
    surviving.push_back({remap[winner], remap[loser]});
  }
  pairs_ = std::move(surviving);
  refit();
  return dropped;
}

void PreferenceLearner::run(PreferenceOracle& oracle,
                            std::size_t num_comparisons) {
  for (std::size_t round = 0; round < num_comparisons; ++round) {
    // One comparison: pick the pair (EUBO over the pool's joint
    // posterior), ask the oracle, refit (pref.fit).
    PAMO_SPAN("pref.query");
    std::size_t best_a = 0;
    std::size_t best_b = 1;
    const bool explore = pairs_.size() % kExploreEvery == kExploreEvery - 1;
    if (!options_.use_eubo || pairs_.empty() || explore) {
      // Random pair (also the cold-start round: the prior posterior is
      // exchangeable, so EUBO cannot distinguish pairs yet).
      best_a = rng_.uniform_index(pool_.size());
      do {
        best_b = rng_.uniform_index(pool_.size());
      } while (best_b == best_a);
    } else {
      // One joint posterior over the pool, then closed-form EUBO per pair.
      // Already-asked pairs are excluded: EUBO concentrates on the current
      // top pair otherwise and wastes decision-maker queries.
      auto already_asked = [&](std::size_t a, std::size_t b) {
        for (const auto& [w, l] : pairs_) {
          if ((w == a && l == b) || (w == b && l == a)) return true;
        }
        return false;
      };
      const gp::Posterior post = model_.posterior(pool_);
      double best_score = -1e300;
      bool found = false;
      for (std::size_t trial = 0; trial < options_.pairs_per_round; ++trial) {
        const std::size_t a = rng_.uniform_index(pool_.size());
        std::size_t b = rng_.uniform_index(pool_.size());
        if (a == b || already_asked(a, b)) continue;
        const double score = expected_max_gaussian(
            post.mean[a], post.mean[b], post.covariance(a, a),
            post.covariance(b, b), post.covariance(a, b));
        if (score > best_score) {
          best_score = score;
          best_a = a;
          best_b = b;
          found = true;
        }
      }
      if (!found) {
        best_a = rng_.uniform_index(pool_.size());
        do {
          best_b = rng_.uniform_index(pool_.size());
        } while (best_b == best_a);
      }
    }
    const bool a_wins = oracle.prefers(pool_[best_a], pool_[best_b]);
    absorb(a_wins ? ComparisonPair{best_a, best_b}
                  : ComparisonPair{best_b, best_a});
  }
}

}  // namespace pamo::pref
