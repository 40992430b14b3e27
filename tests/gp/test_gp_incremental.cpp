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
#include <utility>
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
    EXPECT_EQ(pa.mean[i], pb.mean[i]);  // pamo-analyze: allow(float-eq)
  }
  for (std::size_t i = 0; i < pa.covariance.rows(); ++i) {
    for (std::size_t j = 0; j < pa.covariance.cols(); ++j) {
      // pamo-analyze: allow(float-eq)
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
      // pamo-analyze: allow(float-eq)
      EXPECT_EQ(fast.predict_mean(row), slow.predict_mean(row));
      // pamo-analyze: allow(float-eq)
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
    EXPECT_EQ(first.mean[i], ref.mean[i]);   // pamo-analyze: allow(float-eq)
    EXPECT_EQ(cached.mean[i], ref.mean[i]);  // pamo-analyze: allow(float-eq)
  }
  for (std::size_t i = 0; i < ref.covariance.rows(); ++i) {
    for (std::size_t j = 0; j < ref.covariance.cols(); ++j) {
      // pamo-analyze: allow(float-eq)
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

/// Posterior, predictions and coloured samples of `a` and `b` are equal
/// bit for bit over `q` (the same normals drive both samplers).
void expect_models_identical(const GpRegressor& a, const GpRegressor& b,
                             const std::vector<std::vector<double>>& q,
                             const la::Matrix& z) {
  ASSERT_EQ(a.num_points(), b.num_points());
  ASSERT_EQ(a.num_distinct(), b.num_distinct());
  expect_posteriors_identical(a, b, q);
  const la::Matrix sa = a.sample_joint_given(q, z);
  const la::Matrix sb = b.sample_joint_given(q, z);
  EXPECT_EQ(sa.data(), sb.data());
  for (const auto& row : q) {
    EXPECT_EQ(a.predict_mean(row), b.predict_mean(row));
    EXPECT_EQ(a.predict_var(row), b.predict_var(row));
  }
}

/// Drive a cached (incremental) and a from-scratch model through every
/// state change a GP sees in service — fit, repeated-input and new-input
/// in-box updates, an out-of-box update, an MLE refit, copy-assignment
/// over a model with tables of its own, snapshot/restore — and compare
/// them after each step. The checks ask the main query set last, so the
/// cached model's tables for it are warm when the next step lands and
/// its first check runs on the reused tables.
/// Returns the cached model's final diagnostics.
GpFitDiagnostics expect_cache_exact_through_every_step(GpOptions options) {
  options.mle_restarts = 2;
  options.mle_max_evals = 120;
  GpOptions cached_options = options;
  cached_options.incremental = true;
  GpOptions scratch_options = options;
  scratch_options.incremental = false;
  GpRegressor cached(cached_options);
  GpRegressor scratch(scratch_options);

  Rng rng(0x16c00013ULL);
  Rng qrng(0x16c00014ULL);
  const std::vector<std::vector<std::vector<double>>> queries = {
      make_points(qrng, 9, 0.1, 0.9), make_points(qrng, 5, 0.0, 1.0)};
  std::vector<la::Matrix> normals;
  for (const auto& q : queries) {
    la::Matrix z(4, q.size());
    for (double& v : z.data()) v = qrng.normal();
    normals.push_back(std::move(z));
  }
  const auto step = [&](const char* what, const auto& op) {
    SCOPED_TRACE(what);
    op(cached);
    op(scratch);
    for (const std::size_t k : {0, 1, 0}) {
      expect_models_identical(cached, scratch, queries[k], normals[k]);
    }
  };

  auto x0 = make_seed_points(rng, 14);
  const std::vector<std::vector<double>> repeats(x0.begin(), x0.begin() + 4);
  x0.insert(x0.end(), repeats.begin(), repeats.end());
  const auto y0 = noisy_targets_of(x0, rng);
  const auto inside = make_points(rng, 3, 0.1, 0.9);
  const auto outside = make_points(rng, 2, 1.1, 1.3);
  const auto batch = [&](std::vector<std::vector<double>> x) {
    return std::make_pair(x, noisy_targets_of(x, rng));
  };
  const auto repeated = batch({x0[1], x0[2], x0[2]});
  const auto one_new = batch({inside[0]});
  const auto mixed = batch({x0[3], inside[1]});
  const auto grown = batch({outside[0], inside[2]});
  const auto refit = batch({outside[1]});
  // An outlier the robust fit, when on, downweights.
  auto spike = batch({x0[4]});
  spike.second[0] += 40.0;

  step("fit", [&](GpRegressor& gp) { gp.fit(x0, y0); });
  step("repeated-input update", [&](GpRegressor& gp) {
    gp.update(repeated.first, repeated.second);
  });
  step("new distinct input", [&](GpRegressor& gp) {
    gp.update(one_new.first, one_new.second);
  });
  step("known and new input", [&](GpRegressor& gp) {
    gp.update(mixed.first, mixed.second);
  });
  step("outlier", [&](GpRegressor& gp) {
    gp.update(spike.first, spike.second);
  });
  step("out-of-box update", [&](GpRegressor& gp) {
    gp.update(grown.first, grown.second);
  });
  const auto elsewhere = make_points(rng, 6, 0.0, 2.0);
  step("copy-assignment", [&](GpRegressor& gp) {
    // A model with warm tables over other inputs and hyperparameters takes
    // gp's state, and the sequence goes on from that copy.
    GpRegressor other(cached_options);
    other.fit(elsewhere, targets_of(elsewhere));
    (void)other.posterior(queries[0]);
    other = gp;
    gp = other;
  });
  step("reoptimize", [&](GpRegressor& gp) {
    gp.update(refit.first, refit.second, /*reoptimize=*/true);
  });
  step("repeated-input update after the refit", [&](GpRegressor& gp) {
    gp.update(repeated.first, repeated.second);
  });
  step("snapshot/restore", [&](GpRegressor& gp) {
    const obs::json::Value snap = gp.snapshot();
    gp.update(one_new.first, one_new.second);  // tables the restore replaces
    (void)gp.posterior(queries[1]);
    gp.restore(snap);
  });
  step("update after the restore", [&](GpRegressor& gp) {
    gp.update(mixed.first, mixed.second);
  });
  return cached.diagnostics();
}

TEST(GpIncremental, CachedKernelTablesMatchFromScratchThroughEveryStep) {
  GpOptions options;  // MLE hyperparameters, so the refit moves them
  const GpFitDiagnostics d = expect_cache_exact_through_every_step(options);
  // Both in-box paths ran: re-solves of repeated inputs and extensions.
  EXPECT_GE(d.incremental_updates, 4u);
}

TEST(GpIncremental, CachedKernelTablesMatchFromScratchUnderRobustNoise) {
  GpOptions options;
  options.robust_noise = true;  // every update rebuilds and reweights
  const GpFitDiagnostics d = expect_cache_exact_through_every_step(options);
  EXPECT_GT(d.outliers_downweighted, 0u);
}

}  // namespace
}  // namespace pamo::gp
