#include "pref/preference_gp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pamo::pref {
namespace {

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

/// Ground-truth utility used to generate comparisons.
double true_utility(const std::vector<double>& y) {
  return -(2.0 * y[0] + 0.5 * y[1]);
}

std::vector<std::vector<double>> grid_points_2d() {
  std::vector<std::vector<double>> points;
  for (int i = 0; i <= 4; ++i) {
    for (int j = 0; j <= 4; ++j) {
      points.push_back({i / 4.0, j / 4.0});
    }
  }
  return points;
}

std::vector<ComparisonPair> make_pairs(
    const std::vector<std::vector<double>>& points, std::size_t count,
    Rng& rng) {
  std::vector<ComparisonPair> pairs;
  while (pairs.size() < count) {
    const std::size_t a = rng.uniform_index(points.size());
    const std::size_t b = rng.uniform_index(points.size());
    if (a == b) continue;
    if (true_utility(points[a]) > true_utility(points[b])) {
      pairs.push_back({a, b});
    } else {
      pairs.push_back({b, a});
    }
  }
  return pairs;
}

TEST(PreferenceGp, RejectsBadInput) {
  PreferenceGp model;
  EXPECT_THROW(model.fit({}, {}), Error);
  EXPECT_THROW(model.fit({{0.0}, {1.0}}, {{0, 2}}), Error);  // out of range
  EXPECT_THROW(model.fit({{0.0}, {1.0}}, {{1, 1}}), Error);  // self-compare
  EXPECT_THROW(static_cast<void>(model.utility_mean({0.0})),
               Error);  // before fit
}

TEST(PreferenceGp, NoPairsGivesFlatPriorMean) {
  PreferenceGp model;
  model.fit({{0.0, 0.0}, {1.0, 1.0}}, {});
  EXPECT_NEAR(model.utility_mean({0.5, 0.5}), 0.0, 1e-9);
}

TEST(PreferenceGp, SinglePairOrdersTheTwoPoints) {
  PreferenceGp model;
  model.fit({{0.0, 0.0}, {1.0, 1.0}}, {{0, 1}});  // point 0 preferred
  EXPECT_GT(model.utility_mean({0.0, 0.0}), model.utility_mean({1.0, 1.0}));
}

TEST(PreferenceGp, MapUtilitiesRespectTransitiveChain) {
  // a ≻ b ≻ c: latent utilities must be strictly decreasing.
  PreferenceGp model;
  model.fit({{0.0}, {0.5}, {1.0}}, {{0, 1}, {1, 2}});
  const auto& g = model.map_utilities();
  EXPECT_GT(g[0], g[1]);
  EXPECT_GT(g[1], g[2]);
}

TEST(PreferenceGp, RecoversLinearUtilityOrdering) {
  Rng rng(5);
  const auto points = grid_points_2d();
  const auto pairs = make_pairs(points, 60, rng);
  PreferenceGp model;
  model.fit(points, pairs);

  // Check pairwise ordering accuracy on fresh test pairs.
  int correct = 0;
  const int trials = 300;
  Rng test_rng(99);
  for (int t = 0; t < trials; ++t) {
    std::vector<double> y1{test_rng.uniform(), test_rng.uniform()};
    std::vector<double> y2{test_rng.uniform(), test_rng.uniform()};
    const bool truth = true_utility(y1) > true_utility(y2);
    const bool pred = model.utility_mean(y1) > model.utility_mean(y2);
    if (truth == pred) ++correct;
  }
  EXPECT_GT(correct, trials * 85 / 100);
}

TEST(PreferenceGp, UpdateAppendsAndRefits) {
  PreferenceGp model;
  model.fit({{0.0}, {1.0}}, {{0, 1}});
  EXPECT_EQ(model.num_points(), 2u);
  EXPECT_EQ(model.num_pairs(), 1u);
  model.update({{0.5}}, {{2, 1}});  // new point preferred over point 1
  EXPECT_EQ(model.num_points(), 3u);
  EXPECT_EQ(model.num_pairs(), 2u);
  EXPECT_GT(model.utility_mean({0.5}), model.utility_mean({1.0}));
}

TEST(PreferenceGp, PosteriorCovarianceSymmetricPsdDiagonal) {
  Rng rng(6);
  const auto points = grid_points_2d();
  const auto pairs = make_pairs(points, 20, rng);
  PreferenceGp model;
  model.fit(points, pairs);
  const std::vector<std::vector<double>> test{{0.1, 0.1}, {0.9, 0.2},
                                              {0.5, 0.5}};
  const gp::Posterior post = model.posterior(test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_GE(post.covariance(i, i), -1e-8);
    for (std::size_t j = 0; j < test.size(); ++j) {
      EXPECT_NEAR(post.covariance(i, j), post.covariance(j, i), 1e-9);
    }
  }
}

TEST(PreferenceGp, ComparisonsShrinkPosteriorVariance) {
  const auto points = grid_points_2d();
  PreferenceGp no_data;
  no_data.fit(points, {});
  Rng rng(7);
  const auto pairs = make_pairs(points, 40, rng);
  PreferenceGp with_data;
  with_data.fit(points, pairs);
  const std::vector<std::vector<double>> test{{0.5, 0.5}};
  const double var_prior = no_data.posterior(test).covariance(0, 0);
  const double var_post = with_data.posterior(test).covariance(0, 0);
  EXPECT_LT(var_post, var_prior);
}

TEST(PreferenceGp, SampleJointMatchesPosteriorMean) {
  Rng rng(8);
  const auto points = grid_points_2d();
  const auto pairs = make_pairs(points, 30, rng);
  PreferenceGp model;
  model.fit(points, pairs);
  const std::vector<std::vector<double>> test{{0.2, 0.8}, {0.8, 0.2}};
  const gp::Posterior post = model.posterior(test);
  Rng sample_rng(9);
  const la::Matrix samples = draw_joint(model, test, 3000, sample_rng);
  for (std::size_t c = 0; c < test.size(); ++c) {
    double mean = 0.0;
    for (std::size_t s = 0; s < samples.rows(); ++s) mean += samples(s, c);
    mean /= static_cast<double>(samples.rows());
    EXPECT_NEAR(mean, post.mean[c], 0.1);
  }
}

class PairCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PairCountSweep, AccuracyImprovesWithMorePairs) {
  // Ordering accuracy at `count` pairs should beat chance decisively.
  const std::size_t count = GetParam();
  Rng rng(1000 + count);
  const auto points = grid_points_2d();
  const auto pairs = make_pairs(points, count, rng);
  PreferenceGp model;
  model.fit(points, pairs);
  int correct = 0;
  const int trials = 200;
  Rng test_rng(77);
  for (int t = 0; t < trials; ++t) {
    std::vector<double> y1{test_rng.uniform(), test_rng.uniform()};
    std::vector<double> y2{test_rng.uniform(), test_rng.uniform()};
    if ((true_utility(y1) > true_utility(y2)) ==
        (model.utility_mean(y1) > model.utility_mean(y2))) {
      ++correct;
    }
  }
  EXPECT_GT(correct, trials * 6 / 10) << "pairs = " << count;
}

INSTANTIATE_TEST_SUITE_P(Pairs, PairCountSweep,
                         ::testing::Values<std::size_t>(6, 12, 24, 48));

}  // namespace
}  // namespace pamo::pref
