// The incremental update()/posterior() hot path must be bit-for-bit
// indistinguishable from the full rebuild it replaces: two regressors that
// differ only in GpOptions::incremental must agree EXACTLY after any
// sequence of updates — factor extensions and re-solves of batches that
// repeat an input alike — and every condition the fast path cannot
// reproduce (MLE, robust noise, jittered factors, a grown input box) must
// fall back to the rebuild — visibly, via diagnostics().
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "la/matrix.hpp"

namespace pamo::gp {
namespace {

constexpr std::size_t kDim = 2;

double target(const std::vector<double>& x) {
  return std::sin(3.0 * x[0]) + 0.5 * std::cos(2.0 * x[1]) + 0.3 * x[0] * x[1];
}

/// Random points inside [lo, hi]².
std::vector<std::vector<double>> make_points(Rng& rng, std::size_t n,
                                             double lo, double hi) {
  std::vector<std::vector<double>> x(n, std::vector<double>(kDim));
  for (auto& row : x) {
    for (auto& v : row) v = rng.uniform(lo, hi);
  }
  return x;
}

/// Seed set whose min-max input box is exactly [0,1]² (corner anchors), so
/// later batches drawn from any sub-range stay inside the box and the
/// incremental path is eligible.
std::vector<std::vector<double>> make_seed_points(Rng& rng, std::size_t n) {
  auto x = make_points(rng, n, 0.0, 1.0);
  x.push_back({0.0, 0.0});
  x.push_back({1.0, 1.0});
  return x;
}

std::vector<double> targets_of(const std::vector<std::vector<double>>& x) {
  std::vector<double> y;
  y.reserve(x.size());
  for (const auto& row : x) y.push_back(target(row));
  return y;
}

KernelParams fixed_params() {
  KernelParams p;
  p.log_lengthscales = {std::log(0.4), std::log(0.6)};
  p.log_signal_var = std::log(1.2);
  p.log_noise_var = std::log(1e-3);
  return p;
}

GpOptions options_with(bool incremental) {
  GpOptions o;
  o.fixed_params = fixed_params();
  o.incremental = incremental;
  return o;
}

void expect_posteriors_identical(const GpRegressor& a, const GpRegressor& b,
                                 const std::vector<std::vector<double>>& q) {
  const Posterior pa = a.posterior(q);
  const Posterior pb = b.posterior(q);
  ASSERT_EQ(pa.mean.size(), pb.mean.size());
  for (std::size_t i = 0; i < pa.mean.size(); ++i) {
    EXPECT_EQ(pa.mean[i], pb.mean[i]);  // pamo-lint: allow(float-eq)
  }
  for (std::size_t i = 0; i < pa.covariance.rows(); ++i) {
    for (std::size_t j = 0; j < pa.covariance.cols(); ++j) {
      // pamo-lint: allow(float-eq)
      EXPECT_EQ(pa.covariance(i, j), pb.covariance(i, j));
    }
  }
}

TEST(GpIncremental, UpdateMatchesFullRebuildExactly) {
  Rng rng(0x16c00001ULL);
  // The seed ranges span [0, 1] so later batches drawn from a strict
  // sub-range stay inside the input box and the fast path is eligible.
  auto x0 = make_seed_points(rng, 24);
  auto y0 = targets_of(x0);
  GpRegressor fast(options_with(true));
  GpRegressor slow(options_with(false));
  fast.fit(x0, y0);
  slow.fit(x0, y0);

  Rng qrng(0x16c00002ULL);
  const auto query = make_points(qrng, 9, 0.1, 0.9);
  for (std::size_t batch = 0; batch < 4; ++batch) {
    const auto xb = make_points(rng, 3 + batch, 0.05, 0.95);
    const auto yb = targets_of(xb);
    fast.update(xb, yb);
    slow.update(xb, yb);
    ASSERT_EQ(fast.num_points(), slow.num_points());
    expect_posteriors_identical(fast, slow, query);
    for (const auto& row : query) {
      // pamo-lint: allow(float-eq)
      EXPECT_EQ(fast.predict_mean(row), slow.predict_mean(row));
      // pamo-lint: allow(float-eq)
      EXPECT_EQ(fast.predict_var(row), slow.predict_var(row));
    }
  }
  EXPECT_EQ(fast.diagnostics().incremental_updates, 4u);
  EXPECT_EQ(fast.diagnostics().incremental_fallbacks, 0u);
  EXPECT_EQ(slow.diagnostics().incremental_updates, 0u);
}

TEST(GpIncremental, UpdateEqualsFreshFitOnUnion) {
  Rng rng(0x16c00003ULL);
  auto x0 = make_seed_points(rng, 20);
  auto y0 = targets_of(x0);
  const auto x1 = make_points(rng, 6, 0.1, 0.9);
  const auto y1 = targets_of(x1);

  GpRegressor incremental(options_with(true));
  incremental.fit(x0, y0);
  incremental.update(x1, y1);
  ASSERT_GT(incremental.diagnostics().incremental_updates, 0u);

  auto x_union = x0;
  x_union.insert(x_union.end(), x1.begin(), x1.end());
  auto y_union = y0;
  y_union.insert(y_union.end(), y1.begin(), y1.end());
  GpRegressor fresh(options_with(true));
  fresh.fit(x_union, y_union);

  Rng qrng(0x16c00004ULL);
  expect_posteriors_identical(incremental, fresh,
                              make_points(qrng, 7, 0.2, 0.8));
}

TEST(GpIncremental, RobustNoiseForcesFallbackWithIdenticalResults) {
  Rng rng(0x16c00005ULL);
  auto x0 = make_seed_points(rng, 18);
  auto y0 = targets_of(x0);
  GpOptions fast_opts = options_with(true);
  fast_opts.robust_noise = true;
  GpOptions slow_opts = options_with(false);
  slow_opts.robust_noise = true;
  GpRegressor fast(fast_opts);
  GpRegressor slow(slow_opts);
  fast.fit(x0, y0);
  slow.fit(x0, y0);

  auto xb = make_points(rng, 4, 0.1, 0.9);
  auto yb = targets_of(xb);
  yb[0] += 25.0;  // an outlier the robust refit must be free to reweight
  fast.update(xb, yb);
  slow.update(xb, yb);

  EXPECT_EQ(fast.diagnostics().incremental_updates, 0u);
  EXPECT_GT(fast.diagnostics().incremental_fallbacks, 0u);
  Rng qrng(0x16c00006ULL);
  expect_posteriors_identical(fast, slow, make_points(qrng, 6, 0.2, 0.8));
}

TEST(GpIncremental, OutOfBoxPointFallsBackAndStaysCorrect) {
  Rng rng(0x16c00007ULL);
  auto x0 = make_seed_points(rng, 16);
  auto y0 = targets_of(x0);
  GpRegressor fast(options_with(true));
  GpRegressor slow(options_with(false));
  fast.fit(x0, y0);
  slow.fit(x0, y0);

  // A point outside [0,1]² changes the min-max input scaling, which the
  // factor extension cannot reproduce — full rebuild required.
  const std::vector<std::vector<double>> xb = {{1.5, 0.5}, {0.4, 0.3}};
  const auto yb = targets_of(xb);
  fast.update(xb, yb);
  slow.update(xb, yb);

  EXPECT_EQ(fast.diagnostics().incremental_updates, 0u);
  EXPECT_GT(fast.diagnostics().incremental_fallbacks, 0u);
  Rng qrng(0x16c00008ULL);
  expect_posteriors_identical(fast, slow, make_points(qrng, 5, 0.2, 0.8));
}

TEST(GpIncremental, ReoptimizeForcesRebuild) {
  Rng rng(0x16c00009ULL);
  auto x0 = make_seed_points(rng, 16);
  auto y0 = targets_of(x0);
  GpOptions opts;  // no fixed params: update(reoptimize=true) runs MLE
  opts.incremental = true;
  opts.mle_restarts = 1;
  opts.mle_max_evals = 40;
  GpRegressor gp(opts);
  gp.fit(x0, y0);

  const auto xb = make_points(rng, 3, 0.1, 0.9);
  gp.update(xb, targets_of(xb), /*reoptimize=*/true);
  EXPECT_EQ(gp.diagnostics().incremental_updates, 0u);
}

TEST(GpIncremental, PosteriorWorkspaceReuseIsExact) {
  Rng rng(0x16c0000aULL);
  auto x0 = make_seed_points(rng, 22);
  auto y0 = targets_of(x0);
  GpRegressor gp(options_with(true));
  gp.fit(x0, y0);

  Rng qrng(0x16c0000bULL);
  const auto query = make_points(qrng, 11, 0.1, 0.9);
  const Posterior first = gp.posterior(query);
  // Second call over the same query set is served from the cached
  // workspace; a workspace-free twin is the ground truth.
  const Posterior cached = gp.posterior(query);
  GpRegressor no_cache(options_with(false));
  no_cache.fit(x0, y0);
  const Posterior ref = no_cache.posterior(query);
  for (std::size_t i = 0; i < ref.mean.size(); ++i) {
    EXPECT_EQ(first.mean[i], ref.mean[i]);   // pamo-lint: allow(float-eq)
    EXPECT_EQ(cached.mean[i], ref.mean[i]);  // pamo-lint: allow(float-eq)
  }
  for (std::size_t i = 0; i < ref.covariance.rows(); ++i) {
    for (std::size_t j = 0; j < ref.covariance.cols(); ++j) {
      // pamo-lint: allow(float-eq)
      EXPECT_EQ(cached.covariance(i, j), ref.covariance(i, j));
    }
  }

  // After an incremental update the workspace extends rather than
  // recomputes; the posterior must still match the no-cache twin exactly.
  const auto xb = make_points(rng, 4, 0.05, 0.95);
  const auto yb = targets_of(xb);
  gp.update(xb, yb);
  no_cache.update(xb, yb);
  ASSERT_GT(gp.diagnostics().incremental_updates, 0u);
  expect_posteriors_identical(gp, no_cache, query);
}

/// `x` with noisy targets, so rows that share an input disagree.
std::vector<double> noisy_targets_of(const std::vector<std::vector<double>>& x,
                                     Rng& rng) {
  auto y = targets_of(x);
  for (double& v : y) v += 0.05 * rng.normal();
  return y;
}

TEST(GpIncremental, RepeatedInputBatchResolvesLikeRebuild) {
  // A batch that repeats an input — a known one, or one twice within the
  // batch — folds into the distinct-row groups and re-solves. It must
  // equal the full rebuild exactly and count as an incremental update.
  Rng rng(0x16c0000fULL);
  auto x0 = make_seed_points(rng, 12);
  const std::vector<std::vector<double>> repeats(x0.begin(), x0.begin() + 6);
  x0.insert(x0.end(), repeats.begin(), repeats.end());
  const auto y0 = noisy_targets_of(x0, rng);
  GpRegressor fast(options_with(true));
  GpRegressor slow(options_with(false));
  fast.fit(x0, y0);
  slow.fit(x0, y0);
  ASSERT_EQ(fast.num_distinct(), 14u);

  const auto fresh = make_points(rng, 2, 0.1, 0.9);
  const std::vector<std::vector<std::vector<double>>> batches = {
      {x0[0], x0[3], x0[3]},       // known inputs only
      {x0[5], fresh[0]},           // a known input and a new one
      {fresh[1], fresh[1]},        // one new input, twice
  };
  Rng qrng(0x16c00010ULL);
  const auto query = make_points(qrng, 8, 0.1, 0.9);
  for (const auto& xb : batches) {
    const auto yb = noisy_targets_of(xb, rng);
    fast.update(xb, yb);
    slow.update(xb, yb);
    expect_posteriors_identical(fast, slow, query);
  }
  EXPECT_EQ(fast.num_points(), x0.size() + 7);
  EXPECT_EQ(fast.num_distinct(), 16u);
  EXPECT_EQ(fast.diagnostics().incremental_updates, 3u);
  EXPECT_EQ(fast.diagnostics().incremental_fallbacks, 0u);
}

TEST(GpIncremental, AllNewInputsExtendOverRepeatedGroups) {
  // The factor extension on a bank whose inputs carry several rows each.
  Rng rng(0x16c00011ULL);
  auto x0 = make_seed_points(rng, 10);
  const std::vector<std::vector<double>> repeats(x0.begin(), x0.begin() + 8);
  x0.insert(x0.end(), repeats.begin(), repeats.end());
  const auto y0 = noisy_targets_of(x0, rng);
  GpRegressor fast(options_with(true));
  GpRegressor slow(options_with(false));
  fast.fit(x0, y0);
  slow.fit(x0, y0);
  Rng qrng(0x16c00012ULL);
  const auto query = make_points(qrng, 8, 0.1, 0.9);
  (void)fast.posterior(query);  // the workspace then extends
  const auto xb = make_points(rng, 3, 0.1, 0.9);
  const auto yb = noisy_targets_of(xb, rng);
  fast.update(xb, yb);
  slow.update(xb, yb);
  EXPECT_EQ(fast.diagnostics().incremental_updates, 1u);
  expect_posteriors_identical(fast, slow, query);
}

TEST(GpIncremental, SampleJointGivenMatchesSampleJoint) {
  Rng rng(0x16c0000cULL);
  auto x0 = make_seed_points(rng, 14);
  auto y0 = targets_of(x0);
  GpRegressor gp(options_with(true));
  gp.fit(x0, y0);

  Rng qrng(0x16c0000dULL);
  const auto query = make_points(qrng, 6, 0.2, 0.8);
  const std::size_t num_samples = 5;

  Rng draw_a(0x16c0000eULL);
  const la::Matrix direct = gp.sample_joint(query, num_samples, draw_a);

  // Pre-draw the same normals row-major — the documented equivalence.
  Rng draw_b(0x16c0000eULL);
  la::Matrix z(num_samples, query.size());
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (std::size_t i = 0; i < query.size(); ++i) z(s, i) = draw_b.normal();
  }
  const la::Matrix given = gp.sample_joint_given(query, z);
  ASSERT_EQ(given.rows(), direct.rows());
  ASSERT_EQ(given.cols(), direct.cols());
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (std::size_t i = 0; i < query.size(); ++i) {
      EXPECT_EQ(given(s, i), direct(s, i));  // pamo-lint: allow(float-eq)
    }
  }
}

}  // namespace
}  // namespace pamo::gp
