// Preference-state snapshot/restore: the Laplace posterior and the
// learner's query stream survive a round-trip bit-for-bit, so a resumed
// learner asks the exact questions the uninterrupted one would have.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pref/learner.hpp"
#include "pref/oracle.hpp"
#include "pref/preference_gp.hpp"

namespace pamo::pref {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Joint samples of the Laplace posterior utility at `y` (num_samples ×
/// |y|), coloured by the Cholesky factor of posterior().
la::Matrix draw_joint(const PreferenceGp& model,
                      const std::vector<std::vector<double>>& y,
                      std::size_t num_samples, Rng& rng) {
  const gp::Posterior post = model.posterior(y);
  const std::size_t m = y.size();
  const la::Cholesky chol(post.covariance, /*max_jitter=*/1e-2);
  la::Matrix samples(num_samples, m);
  la::Vector z(m);
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (auto& zi : z) zi = rng.normal();
    for (std::size_t i = 0; i < m; ++i) {
      double sum = post.mean[i];
      for (std::size_t j = 0; j <= i; ++j) sum += chol.lower()(i, j) * z[j];
      samples(s, i) = sum;
    }
  }
  return samples;
}

std::vector<std::vector<double>> pool_5d(std::size_t n, Rng& rng) {
  std::vector<std::vector<double>> pool;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> y(5);
    for (auto& v : y) v = rng.uniform();
    pool.push_back(std::move(y));
  }
  return pool;
}

TEST(PreferenceGpSnapshot, PosteriorIsBitIdenticalAfterRestore) {
  Rng rng(21);
  const auto points = pool_5d(12, rng);
  std::vector<ComparisonPair> pairs = {{0, 1}, {2, 3}, {4, 0}, {5, 6},
                                       {7, 2}, {8, 9}, {10, 11}};
  PreferenceGpOptions options;
  PreferenceGp original(options);
  original.fit(points, pairs);

  PreferenceGp restored(options);
  restored.restore(obs::json::Value::parse(original.snapshot().dump()));

  ASSERT_TRUE(restored.is_fit());
  EXPECT_EQ(restored.num_points(), original.num_points());
  EXPECT_EQ(restored.num_pairs(), original.num_pairs());
  Rng probe_rng(3);
  const auto probes = pool_5d(6, probe_rng);
  const auto post_a = original.posterior(probes);
  const auto post_b = restored.posterior(probes);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(bits(post_b.mean[i]), bits(post_a.mean[i]));
    for (std::size_t j = 0; j < probes.size(); ++j) {
      EXPECT_EQ(bits(post_b.covariance(i, j)), bits(post_a.covariance(i, j)));
    }
    EXPECT_EQ(bits(restored.utility_mean(probes[i])),
              bits(original.utility_mean(probes[i])));
  }
  for (std::size_t i = 0; i < original.map_utilities().size(); ++i) {
    EXPECT_EQ(bits(restored.map_utilities()[i]),
              bits(original.map_utilities()[i]));
  }
}

TEST(PreferenceGpSnapshot, SampleJointStaysIdenticalFromEqualRngs) {
  // draw_joint consumes caller RNG state; with equal factors and equal
  // RNGs the draws must match exactly.
  Rng rng(22);
  const auto points = pool_5d(10, rng);
  std::vector<ComparisonPair> pairs = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  PreferenceGp original;
  original.fit(points, pairs);
  PreferenceGp restored;
  restored.restore(original.snapshot());

  Rng draw_a(77);
  Rng draw_b(77);
  Rng probe_rng(5);
  const auto probes = pool_5d(4, probe_rng);
  const auto samp_a = draw_joint(original, probes, 3, draw_a);
  const auto samp_b = draw_joint(restored, probes, 3, draw_b);
  for (std::size_t i = 0; i < samp_a.rows(); ++i) {
    for (std::size_t j = 0; j < samp_a.cols(); ++j) {
      EXPECT_EQ(bits(samp_b(i, j)), bits(samp_a(i, j)));
    }
  }
}

TEST(PreferenceGpSnapshot, ContinuedUpdatesMatch) {
  Rng rng(23);
  const auto points = pool_5d(10, rng);
  std::vector<ComparisonPair> pairs = {{0, 1}, {2, 3}, {4, 5}};
  PreferenceGp uninterrupted;
  uninterrupted.fit(points, pairs);
  PreferenceGp restored;
  restored.restore(uninterrupted.snapshot());

  const auto extra = pool_5d(3, rng);
  const std::vector<ComparisonPair> extra_pairs = {{10, 2}, {11, 12}};
  uninterrupted.update(extra, extra_pairs);
  restored.update(extra, extra_pairs);

  Rng probe_rng(6);
  for (const auto& y : pool_5d(8, probe_rng)) {
    EXPECT_EQ(bits(restored.utility_mean(y)),
              bits(uninterrupted.utility_mean(y)));
  }
}

TEST(PreferenceGpSnapshot, InconsistencyStateSurvives) {
  Rng rng(24);
  const auto points = pool_5d(6, rng);
  // 0 ≻ 1 and 1 ≻ 0 directly contradict; downweighting flags both.
  std::vector<ComparisonPair> pairs = {{0, 1}, {1, 0}, {2, 3}, {4, 5}};
  PreferenceGpOptions options;
  options.downweight_inconsistent = true;
  PreferenceGp original(options);
  original.fit(points, pairs);
  ASSERT_GT(original.num_inconsistent_pairs(), 0u);

  PreferenceGp restored(options);
  restored.restore(original.snapshot());
  EXPECT_EQ(restored.num_inconsistent_pairs(),
            original.num_inconsistent_pairs());
  Rng probe_rng(8);
  for (const auto& y : pool_5d(5, probe_rng)) {
    EXPECT_EQ(bits(restored.utility_mean(y)), bits(original.utility_mean(y)));
  }
}

TEST(PreferenceGpSnapshot, UnfitModelRoundTrips) {
  PreferenceGp original;
  PreferenceGp restored;
  restored.restore(original.snapshot());
  EXPECT_FALSE(restored.is_fit());
  EXPECT_EQ(restored.num_points(), 0u);
}

TEST(PreferenceLearnerSnapshot, ResumedLearnerAsksIdenticalQueries) {
  // The resume property end-to-end: run half the comparison budget,
  // snapshot, restore into a fresh learner, run the second half on both —
  // pool, comparisons, and posterior must stay bit-identical. The oracle
  // is deterministic (no response noise), so equal queries give equal
  // answers.
  Rng rng(31);
  const auto pool = pool_5d(20, rng);
  LearnerOptions options;
  options.pairs_per_round = 40;
  PreferenceLearner uninterrupted(pool, options, 0xABC);
  PreferenceOracle oracle_a(BenefitFunction::uniform());
  uninterrupted.run(oracle_a, 5);

  PreferenceLearner restored(pool_5d(2, rng), options, 0xDEAD);  // junk init
  restored.restore(
      obs::json::Value::parse(uninterrupted.snapshot().dump()));
  EXPECT_EQ(restored.num_comparisons(), uninterrupted.num_comparisons());
  ASSERT_EQ(restored.pool().size(), uninterrupted.pool().size());

  PreferenceOracle oracle_b(BenefitFunction::uniform());
  uninterrupted.run(oracle_a, 5);
  restored.run(oracle_b, 5);

  ASSERT_EQ(restored.num_comparisons(), uninterrupted.num_comparisons());
  Rng probe_rng(9);
  for (const auto& y : pool_5d(10, probe_rng)) {
    EXPECT_EQ(bits(restored.model().utility_mean(y)),
              bits(uninterrupted.model().utility_mean(y)));
  }
  // And the learners keep agreeing after pool growth mid-resume.
  const auto grown = pool_5d(3, probe_rng);
  uninterrupted.extend_pool(grown);
  restored.extend_pool(grown);
  uninterrupted.run(oracle_a, 3);
  restored.run(oracle_b, 3);
  Rng probe2(10);
  for (const auto& y : pool_5d(6, probe2)) {
    EXPECT_EQ(bits(restored.model().utility_mean(y)),
              bits(uninterrupted.model().utility_mean(y)));
  }
}

/// The comparisons recorded in a learner snapshot.
std::vector<ComparisonPair> asked_pairs(const obs::json::Value& snap) {
  std::vector<ComparisonPair> pairs;
  for (const auto& item : snap.at("pairs").items()) {
    pairs.emplace_back(static_cast<std::size_t>(item.items()[0].as_uint()),
                       static_cast<std::size_t>(item.items()[1].as_uint()));
  }
  return pairs;
}

TEST(PreferenceLearnerSnapshot, PendingExtensionsRoundTripBitIdentically) {
  // Extensions no comparison has referenced yet live in the pool but not
  // in the model; the row map carries that split across the round-trip.
  Rng rng(33);
  LearnerOptions options;
  options.pairs_per_round = 40;
  PreferenceLearner original(pool_5d(10, rng), options, 0xBEE);
  PreferenceOracle oracle_a(BenefitFunction::uniform());
  original.run(oracle_a, 6);
  original.extend_pool(pool_5d(4, rng));
  ASSERT_LT(original.model().num_points(), original.pool().size());

  PreferenceLearner restored(pool_5d(2, rng), options, 1);
  restored.restore(obs::json::Value::parse(original.snapshot().dump()));
  EXPECT_EQ(restored.snapshot().dump(), original.snapshot().dump());

  PreferenceOracle oracle_b(BenefitFunction::uniform());
  original.run(oracle_a, 4);
  restored.run(oracle_b, 4);
  EXPECT_EQ(restored.snapshot().dump(), original.snapshot().dump());
}

TEST(PreferenceLearnerSnapshot, LegacySnapshotWithoutModelRowsRestores) {
  // A snapshot from before the compared-only model: no "model_points",
  // and a model fit over the whole pool. It restores with the identity
  // row map and keeps answering what an all-pool fit answers.
  Rng rng(34);
  LearnerOptions options;
  options.pairs_per_round = 40;
  PreferenceLearner source(pool_5d(12, rng), options, 0xCAB);
  PreferenceOracle oracle(BenefitFunction::uniform());
  source.run(oracle, 5);
  source.extend_pool(pool_5d(3, rng));
  const obs::json::Value current = source.snapshot();
  PreferenceGp whole_pool(options.model);
  whole_pool.fit(source.pool(), asked_pairs(current));
  obs::json::Value legacy = obs::json::Value::object();
  legacy.set("pool", current.at("pool"));
  legacy.set("pairs", current.at("pairs"));
  legacy.set("rng", current.at("rng"));
  legacy.set("model", whole_pool.snapshot());

  PreferenceLearner restored(pool_5d(2, rng), options, 1);
  restored.restore(obs::json::Value::parse(legacy.dump()));
  EXPECT_EQ(restored.model().num_points(), source.pool().size());
  restored.run(oracle, 4);
  restored.extend_pool(pool_5d(2, rng));
  restored.run(oracle, 2);
  EXPECT_EQ(restored.num_comparisons(), 11u);

  PreferenceGp reference(options.model);
  reference.fit(restored.pool(), asked_pairs(restored.snapshot()));
  Rng probe_rng(11);
  for (const auto& y : pool_5d(6, probe_rng)) {
    EXPECT_NEAR(restored.model().utility_mean(y), reference.utility_mean(y),
                1e-8);
  }

  // A legacy model that does not cover the pool cannot be mapped.
  obs::json::Value short_model = legacy;
  PreferenceGp partial(options.model);
  partial.fit(pool_5d(4, rng), {{0, 1}});
  short_model.set("model", partial.snapshot());
  EXPECT_THROW(restored.restore(short_model), pamo::Error);
}

TEST(PreferenceLearnerSnapshot, RestoreRejectsMangledSnapshots) {
  Rng rng(32);
  LearnerOptions options;
  PreferenceLearner learner(pool_5d(8, rng), options, 7);
  PreferenceOracle oracle(BenefitFunction::uniform());
  learner.run(oracle, 2);

  // A pool shrunk to one candidate can't back the recorded comparisons.
  obs::json::Value starved = learner.snapshot();
  obs::json::Value tiny_pool = obs::json::Value::array();
  tiny_pool.push_back(obs::json::Value::array());
  starved.set("pool", std::move(tiny_pool));
  PreferenceLearner victim(pool_5d(8, rng), options, 7);
  EXPECT_THROW(victim.restore(starved), pamo::Error);

  // A comparison pointing past the pool is equally rejected.
  obs::json::Value dangling = learner.snapshot();
  obs::json::Value bad_pair = obs::json::Value::array();
  bad_pair.push_back(obs::json::Value(std::uint64_t{9999}));
  bad_pair.push_back(obs::json::Value(std::uint64_t{0}));
  obs::json::Value bad_pairs = obs::json::Value::array();
  bad_pairs.push_back(std::move(bad_pair));
  dangling.set("pairs", std::move(bad_pairs));
  EXPECT_THROW(victim.restore(dangling), pamo::Error);
}

}  // namespace
}  // namespace pamo::pref
