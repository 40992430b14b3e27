// update() folds its rows into per-input cells and re-solves over the
// cells, reusing the kernel tables it keeps across calls. Both must be
// bit-for-bit invisible: after any sequence of updates a model must agree
// EXACTLY with a cold model rebuilt from its snapshot (one solve over the
// same cells, no cached tables), and — the robust rounds aside, which
// reweight the batch in hand and the cells' earlier extremes — with a
// fresh fit on the union of every row it was fed, in the same order.
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
/// later batches drawn from any sub-range stay inside the box.
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

GpOptions fixed_options() {
  GpOptions o;
  o.fixed_params = fixed_params();
  return o;
}

/// A cold model with `gp`'s options and cells: restore re-derives the
/// scaling, standardization, factor and alpha with one solve and starts
/// with no kernel tables.
GpRegressor rebuilt(const GpRegressor& gp, const GpOptions& options) {
  GpRegressor cold(options);
  cold.restore(gp.snapshot());
  return cold;
}

template <typename T>
std::vector<T> concat(std::vector<T> a, const std::vector<T>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
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
  // sub-range stay inside the input box and keep the kernel tables.
  auto x0 = make_seed_points(rng, 24);
  auto y0 = targets_of(x0);
  GpRegressor gp(fixed_options());
  gp.fit(x0, y0);

  Rng qrng(0x16c00002ULL);
  const auto query = make_points(qrng, 9, 0.1, 0.9);
  for (std::size_t batch = 0; batch < 4; ++batch) {
    const auto xb = make_points(rng, 3 + batch, 0.05, 0.95);
    gp.update(xb, targets_of(xb));
    const GpRegressor cold = rebuilt(gp, fixed_options());
    ASSERT_EQ(gp.num_points(), cold.num_points());
    expect_posteriors_identical(gp, cold, query);
    for (const auto& row : query) {
      // pamo-analyze: allow(float-eq)
      EXPECT_EQ(gp.predict_mean(row), cold.predict_mean(row));
      // pamo-analyze: allow(float-eq)
      EXPECT_EQ(gp.predict_var(row), cold.predict_var(row));
    }
  }
  EXPECT_EQ(gp.num_points(), x0.size() + 3 + 4 + 5 + 6);
}

TEST(GpIncremental, UpdateEqualsFreshFitOnUnion) {
  Rng rng(0x16c00003ULL);
  auto x0 = make_seed_points(rng, 20);
  auto y0 = targets_of(x0);
  const auto x1 = make_points(rng, 6, 0.1, 0.9);
  const auto y1 = targets_of(x1);

  GpRegressor updated(fixed_options());
  updated.fit(x0, y0);
  updated.update(x1, y1);

  GpRegressor fresh(fixed_options());
  fresh.fit(concat(x0, x1), concat(y0, y1));

  Rng qrng(0x16c00004ULL);
  expect_posteriors_identical(updated, fresh,
                              make_points(qrng, 7, 0.2, 0.8));
  EXPECT_EQ(updated.snapshot().dump(), fresh.snapshot().dump());
}

TEST(GpIncremental, RobustUpdateLeavesCleanEarlierRowsAlone) {
  Rng rng(0x16c00005ULL);
  auto x0 = make_seed_points(rng, 18);
  auto y0 = targets_of(x0);
  GpOptions options = fixed_options();
  options.robust_noise = true;
  GpRegressor gp(options);
  gp.fit(x0, y0);
  const std::size_t fit_outliers = gp.diagnostics().outliers_downweighted;
  const obs::json::Value before = gp.snapshot().at("cells");

  // Three rows at a new input, one of them an outlier the robust rounds
  // must be free to reweight, and one more new input.
  const auto fresh = make_points(rng, 2, 0.1, 0.9);
  const std::vector<std::vector<double>> xb = {fresh[0], fresh[0], fresh[0],
                                               fresh[1]};
  auto yb = targets_of(xb);
  yb[2] += 25.0;
  gp.update(xb, yb);
  EXPECT_GT(gp.diagnostics().outliers_downweighted, fit_outliers);

  // The fit's rows are clean, so no round of the update pulls one back:
  // every old cell is unchanged bit for bit.
  const obs::json::Value after = gp.snapshot().at("cells");
  const std::size_t old_cells = before.at("weight").items().size();
  ASSERT_EQ(after.at("weight").items().size(), old_cells + 2);
  for (const char* key : {"count", "mean", "m2", "weight", "wmean"}) {
    for (std::size_t i = 0; i < old_cells; ++i) {
      EXPECT_EQ(after.at(key).items()[i].dump(),
                before.at(key).items()[i].dump())
          << key << " of cell " << i;
    }
  }
  EXPECT_LT(after.at("weight").items()[old_cells].as_double(), 3.0);
  Rng qrng(0x16c00006ULL);
  expect_posteriors_identical(gp, rebuilt(gp, options),
                              make_points(qrng, 6, 0.2, 0.8));
}

TEST(GpIncremental, RobustUpdateFlagsAnEarlierRowALaterPosteriorExposes) {
  // Seed rows in one corner, so nothing near {0.8, 0.2} contradicts the
  // first row that lands there: the posterior follows that corrupt row
  // and its own batch does not flag it.
  Rng rng(0x16c0000bULL);
  auto x0 = concat(make_points(rng, 18, 0.0, 0.4), {{0.0, 0.0}, {1.0, 1.0}});
  GpOptions options = fixed_options();
  options.fixed_params->log_noise_var = std::log(0.03);
  options.robust_noise = true;
  GpRegressor gp(options);
  gp.fit(x0, targets_of(x0));
  const std::vector<double> p = {0.8, 0.2};
  gp.update({p}, {target(p) + 1.0});
  ASSERT_EQ(gp.diagnostics().outliers_downweighted, 0u);
  EXPECT_GT(gp.predict_mean(p) - target(p), 0.9);

  // Clean rows at p expose it: it leaves its cell and is down-weighted,
  // and the mean drops far below the 1/7 bias of a weight-1 cell mean.
  gp.update(std::vector<std::vector<double>>(6, p),
            std::vector<double>(6, target(p)));
  EXPECT_EQ(gp.diagnostics().outliers_downweighted, 1u);
  const obs::json::Value cells = gp.snapshot().at("cells");
  const std::size_t cell = cells.at("weight").items().size() - 1;
  EXPECT_LT(cells.at("weight").items()[cell].as_double(), 6.1);
  EXPECT_EQ(cells.at("hi").items()[cell].as_double(), target(p));
  EXPECT_LT(std::fabs(gp.predict_mean(p) - target(p)), 0.02);

  // The extremes survive a snapshot: a restored model keeps updating bit
  // for bit like this one.
  GpRegressor cold = rebuilt(gp, options);
  const auto more = make_points(rng, 3, 0.1, 0.9);
  gp.update(more, targets_of(more));
  cold.update(more, targets_of(more));
  expect_posteriors_identical(gp, cold, make_points(rng, 5, 0.2, 0.8));
}

TEST(GpIncremental, OutOfBoxPointRescalesTheCells) {
  Rng rng(0x16c00007ULL);
  auto x0 = make_seed_points(rng, 16);
  auto y0 = targets_of(x0);
  GpRegressor updated(fixed_options());
  updated.fit(x0, y0);
  Rng qrng(0x16c00008ULL);
  const auto query = make_points(qrng, 5, 0.2, 0.8);
  (void)updated.posterior(query);  // kernel tables the rescale invalidates

  // A point outside [0,1]² changes the min-max input scaling of every
  // cell: the update rescales them and recomputes the kernel tables.
  const std::vector<std::vector<double>> xb = {{1.5, 0.5}, {0.4, 0.3}};
  const auto yb = targets_of(xb);
  updated.update(xb, yb);

  GpRegressor fresh(fixed_options());
  fresh.fit(concat(x0, xb), concat(y0, yb));
  expect_posteriors_identical(updated, fresh, query);
  expect_posteriors_identical(updated, rebuilt(updated, fixed_options()),
                              query);
}

TEST(GpIncremental, PosteriorWorkspaceReuseIsExact) {
  Rng rng(0x16c0000aULL);
  auto x0 = make_seed_points(rng, 22);
  auto y0 = targets_of(x0);
  GpRegressor gp(fixed_options());
  gp.fit(x0, y0);

  Rng qrng(0x16c0000bULL);
  const auto query = make_points(qrng, 11, 0.1, 0.9);
  const Posterior first = gp.posterior(query);
  // Second call over the same query set is served from the cached
  // workspace; a cold rebuild is the ground truth.
  const Posterior cached = gp.posterior(query);
  const Posterior ref = rebuilt(gp, fixed_options()).posterior(query);
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

  // After an update the workspace appends K* columns for the new cells
  // and re-solves V; the posterior must still match a cold rebuild.
  const auto xb = make_points(rng, 4, 0.05, 0.95);
  gp.update(xb, targets_of(xb));
  expect_posteriors_identical(gp, rebuilt(gp, fixed_options()), query);
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
  // batch — folds into its cells and re-solves. It must equal the fit on
  // every row fed so far exactly.
  Rng rng(0x16c0000fULL);
  auto x0 = make_seed_points(rng, 12);
  const std::vector<std::vector<double>> repeats(x0.begin(), x0.begin() + 6);
  x0.insert(x0.end(), repeats.begin(), repeats.end());
  const auto y0 = noisy_targets_of(x0, rng);
  GpRegressor gp(fixed_options());
  gp.fit(x0, y0);
  ASSERT_EQ(gp.num_distinct(), 14u);

  const auto fresh = make_points(rng, 2, 0.1, 0.9);
  const std::vector<std::vector<std::vector<double>>> batches = {
      {x0[0], x0[3], x0[3]},       // known inputs only
      {x0[5], fresh[0]},           // a known input and a new one
      {fresh[1], fresh[1]},        // one new input, twice
  };
  Rng qrng(0x16c00010ULL);
  const auto query = make_points(qrng, 8, 0.1, 0.9);
  auto x_all = x0;
  auto y_all = y0;
  for (const auto& xb : batches) {
    const auto yb = noisy_targets_of(xb, rng);
    gp.update(xb, yb);
    x_all = concat(x_all, xb);
    y_all = concat(y_all, yb);
    GpRegressor union_fit(fixed_options());
    union_fit.fit(x_all, y_all);
    expect_posteriors_identical(gp, union_fit, query);
  }
  EXPECT_EQ(gp.num_points(), x0.size() + 7);
  EXPECT_EQ(gp.num_distinct(), 16u);
}

TEST(GpIncremental, AllNewInputsExtendOverRepeatedGroups) {
  // New cells appended to a bank whose inputs carry several rows each.
  Rng rng(0x16c00011ULL);
  auto x0 = make_seed_points(rng, 10);
  const std::vector<std::vector<double>> repeats(x0.begin(), x0.begin() + 8);
  x0.insert(x0.end(), repeats.begin(), repeats.end());
  const auto y0 = noisy_targets_of(x0, rng);
  GpRegressor gp(fixed_options());
  gp.fit(x0, y0);
  Rng qrng(0x16c00012ULL);
  const auto query = make_points(qrng, 8, 0.1, 0.9);
  (void)gp.posterior(query);  // the workspace then extends
  const auto xb = make_points(rng, 3, 0.1, 0.9);
  const auto yb = noisy_targets_of(xb, rng);
  gp.update(xb, yb);
  EXPECT_EQ(gp.num_distinct(), 12u + 3u);
  GpRegressor union_fit(fixed_options());
  union_fit.fit(concat(x0, xb), concat(y0, yb));
  expect_posteriors_identical(gp, union_fit, query);
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

/// Drive a model through every state change a GP sees in service — fit,
/// repeated-input and new-input in-box updates, an out-of-box update, an
/// MLE refit on the union of the data, copy-assignment over a model with
/// tables of its own, snapshot/restore — and compare it after each step with a cold rebuild
/// from its snapshot. The checks ask the main query set last, so the
/// model's tables for it are warm when the next step lands and its first
/// check runs on the reused tables.
/// Returns the model's final diagnostics.
GpFitDiagnostics expect_cache_exact_through_every_step(GpOptions options) {
  options.mle_restarts = 2;
  options.mle_max_evals = 120;
  GpRegressor cached(options);

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
    const GpRegressor scratch = rebuilt(cached, options);
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
    GpRegressor other(options);
    other.fit(elsewhere, targets_of(elsewhere));
    (void)other.posterior(queries[0]);
    other = gp;
    gp = other;
  });
  step("refit on the union", [&](GpRegressor& gp) {
    // Every row so far plus one more: the MLE moves the hyperparameters.
    auto x = x0;
    auto y = y0;
    for (const auto& rows : {repeated, one_new, mixed, spike, grown, refit}) {
      x = concat(x, rows.first);
      y = concat(y, rows.second);
    }
    const KernelParams before = gp.params();
    gp.fit(x, y);
    EXPECT_NE(gp.params().pack(), before.pack());
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
  EXPECT_EQ(d.outliers_downweighted, 0u);
}

TEST(GpIncremental, CachedKernelTablesMatchFromScratchUnderRobustNoise) {
  GpOptions options;
  options.robust_noise = true;  // every update reweights its batch
  const GpFitDiagnostics d = expect_cache_exact_through_every_step(options);
  EXPECT_GT(d.outliers_downweighted, 0u);
}

}  // namespace
}  // namespace pamo::gp
