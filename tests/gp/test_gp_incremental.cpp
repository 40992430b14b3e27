// update() folds its rows into per-input cells and re-solves over the
// cells, slicing the kernel table it formed when its hyperparameters were
// set. Both must be bit-for-bit invisible: after any sequence of updates a
// model must agree EXACTLY with a cold model rebuilt from its snapshot
// (one solve over the same cells, a freshly formed table), and — the
// robust rounds aside, which reweight the batch in hand and the cells'
// earlier extremes — with a fresh fit on the union of every row it was
// fed, in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "la/matrix.hpp"
#include "support/gp_grid.hpp"

namespace pamo::gp {
namespace {

double target(const std::vector<double>& x) {
  return std::sin(3.0 * x[0]) + 0.5 * std::cos(2.0 * x[1]) + 0.3 * x[0] * x[1];
}

/// The 11 × 11 grid over [0, 1]², every model's input set here.
Rows unit_grid() {
  std::vector<double> axis;
  for (int i = 0; i <= 10; ++i) axis.push_back(i / 10.0);
  return product_grid(axis, axis);
}

/// `n` grid points inside [lo, hi]² that no earlier call returned, so each
/// drawn point is new, as a continuous draw would be.
Rows make_points(Rng& rng, std::size_t n, double lo, double hi,
                 Rows& used) {
  Rows candidates;
  for (const auto& row : unit_grid()) {
    const bool inside = row[0] >= lo && row[0] <= hi && row[1] >= lo &&
                        row[1] <= hi;
    if (inside && std::find(used.begin(), used.end(), row) == used.end()) {
      candidates.push_back(row);
    }
  }
  rng.shuffle(candidates);
  EXPECT_GE(candidates.size(), n);
  candidates.resize(n);
  used.insert(used.end(), candidates.begin(), candidates.end());
  return candidates;
}

/// Seed set: `n` points plus the two grid corners.
Rows make_seed_points(Rng& rng, std::size_t n, Rows& used) {
  used.push_back({0.0, 0.0});
  used.push_back({1.0, 1.0});
  auto x = make_points(rng, n, 0.0, 1.0, used);
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

/// A cold model with `gp`'s input set, options and cells: restore
/// re-derives the standardization, the kernel table, the factor and alpha
/// with one solve.
GpRegressor rebuilt(const GpRegressor& gp, const GpOptions& options) {
  GpRegressor cold(gp.grid(), options);
  cold.restore(gp.snapshot());
  return cold;
}

/// Fit `gp` to rows of its input set.
void fit_rows(GpRegressor& gp, const Rows& x, const std::vector<double>& y) {
  gp.fit(indices_of(gp, x), y);
}

void update_rows(GpRegressor& gp, const Rows& x, const std::vector<double>& y) {
  gp.update(indices_of(gp, x), y);
}

template <typename T>
std::vector<T> concat(std::vector<T> a, const std::vector<T>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Posterior means and covariances over the input set, and the pointwise
/// means, of `a` and `b` are equal bit for bit.
void expect_posteriors_identical(const GpRegressor& a, const GpRegressor& b) {
  const Posterior pa = a.posterior();
  const Posterior pb = b.posterior();
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
  for (std::size_t g = 0; g < a.grid().size(); ++g) {
    EXPECT_EQ(a.predict_mean(g), b.predict_mean(g));  // pamo-analyze: allow(float-eq)
  }
}

TEST(GpIncremental, UpdateMatchesFullRebuildExactly) {
  Rng rng(0x16c00001ULL);
  Rows used;
  auto x0 = make_seed_points(rng, 24, used);
  auto y0 = targets_of(x0);
  GpRegressor gp(unit_grid(), fixed_options());
  fit_rows(gp, x0, y0);

  for (std::size_t batch = 0; batch < 4; ++batch) {
    const auto xb = make_points(rng, 3 + batch, 0.05, 0.95, used);
    update_rows(gp, xb, targets_of(xb));
    const GpRegressor cold = rebuilt(gp, fixed_options());
    ASSERT_EQ(gp.num_points(), cold.num_points());
    expect_posteriors_identical(gp, cold);
  }
  EXPECT_EQ(gp.num_points(), x0.size() + 3 + 4 + 5 + 6);
}

TEST(GpIncremental, UpdateEqualsFreshFitOnUnion) {
  Rng rng(0x16c00003ULL);
  Rows used;
  auto x0 = make_seed_points(rng, 20, used);
  auto y0 = targets_of(x0);
  const auto x1 = make_points(rng, 6, 0.1, 0.9, used);
  const auto y1 = targets_of(x1);

  GpRegressor updated(unit_grid(), fixed_options());
  fit_rows(updated, x0, y0);
  update_rows(updated, x1, y1);

  GpRegressor fresh(unit_grid(), fixed_options());
  fit_rows(fresh, concat(x0, x1), concat(y0, y1));

  expect_posteriors_identical(updated, fresh);
  EXPECT_EQ(updated.snapshot().dump(), fresh.snapshot().dump());
}

TEST(GpIncremental, RobustUpdateLeavesCleanEarlierRowsAlone) {
  Rng rng(0x16c00005ULL);
  Rows used;
  auto x0 = make_seed_points(rng, 18, used);
  auto y0 = targets_of(x0);
  GpOptions options = fixed_options();
  options.robust_noise = true;
  GpRegressor gp(unit_grid(), options);
  fit_rows(gp, x0, y0);
  const std::size_t fit_outliers = gp.diagnostics().outliers_downweighted;
  const obs::json::Value before = gp.snapshot().at("cells");

  // Three rows at a new input, one of them an outlier the robust rounds
  // must be free to reweight, and one more new input. Both sit at least
  // two grid steps from every fit row: a spike one step (0.1) from a clean
  // row bends the posterior there so far that the same round flags that
  // row as well.
  Rows fresh = unit_grid();
  rng.shuffle(fresh);
  std::erase_if(fresh, [&](const std::vector<double>& row) {
    return std::any_of(x0.begin(), x0.end(), [&](const auto& q) {
      return std::max(std::fabs(q[0] - row[0]), std::fabs(q[1] - row[1])) <
             0.15;
    });
  });
  ASSERT_GE(fresh.size(), 2u);
  const Rows xb = {fresh[0], fresh[0], fresh[0], fresh[1]};
  auto yb = targets_of(xb);
  yb[2] += 25.0;
  update_rows(gp, xb, yb);
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
  expect_posteriors_identical(gp, rebuilt(gp, options));
}

TEST(GpIncremental, RobustUpdateFlagsAnEarlierRowALaterPosteriorExposes) {
  // Seed rows in one corner, so nothing near {0.8, 0.2} contradicts the
  // first row that lands there: the posterior follows that corrupt row
  // and its own batch does not flag it.
  Rng rng(0x16c0000bULL);
  Rows used = {{0.0, 0.0}, {1.0, 1.0}};
  auto x0 = concat(make_points(rng, 18, 0.0, 0.4, used), {{0.0, 0.0}, {1.0, 1.0}});
  GpOptions options = fixed_options();
  options.fixed_params->log_noise_var = std::log(0.03);
  options.robust_noise = true;
  GpRegressor gp(unit_grid(), options);
  fit_rows(gp, x0, targets_of(x0));
  const std::vector<double> p = {0.8, 0.2};
  used.push_back(p);
  const std::size_t at = index_of(gp, p);
  gp.update({at}, {target(p) + 1.0});
  ASSERT_EQ(gp.diagnostics().outliers_downweighted, 0u);
  EXPECT_GT(gp.predict_mean(at) - target(p), 0.9);

  // Clean rows at p expose it: it leaves its cell and is down-weighted,
  // and the mean drops far below the 1/7 bias of a weight-1 cell mean.
  gp.update(std::vector<std::size_t>(6, at),
            std::vector<double>(6, target(p)));
  EXPECT_EQ(gp.diagnostics().outliers_downweighted, 1u);
  const obs::json::Value cells = gp.snapshot().at("cells");
  const std::size_t cell = cells.at("weight").items().size() - 1;
  EXPECT_LT(cells.at("weight").items()[cell].as_double(), 6.1);
  EXPECT_EQ(cells.at("hi").items()[cell].as_double(), target(p));
  EXPECT_LT(std::fabs(gp.predict_mean(at) - target(p)), 0.02);

  // The extremes survive a snapshot: a restored model keeps updating bit
  // for bit like this one.
  GpRegressor cold = rebuilt(gp, options);
  const auto more = make_points(rng, 3, 0.1, 0.9, used);
  update_rows(gp, more, targets_of(more));
  update_rows(cold, more, targets_of(more));
  expect_posteriors_identical(gp, cold);
}

/// `x` with noisy targets, so rows that share an input disagree.
std::vector<double> noisy_targets_of(const Rows& x, Rng& rng) {
  auto y = targets_of(x);
  for (double& v : y) v += 0.05 * rng.normal();
  return y;
}

TEST(GpIncremental, RepeatedInputBatchResolvesLikeRebuild) {
  // A batch that repeats an input — a known one, or one twice within the
  // batch — folds into its cells and re-solves. It must equal the fit on
  // every row fed so far exactly.
  Rng rng(0x16c0000fULL);
  Rows used;
  auto x0 = make_seed_points(rng, 12, used);
  const Rows repeats(x0.begin(), x0.begin() + 6);
  x0.insert(x0.end(), repeats.begin(), repeats.end());
  const auto y0 = noisy_targets_of(x0, rng);
  GpRegressor gp(unit_grid(), fixed_options());
  fit_rows(gp, x0, y0);
  ASSERT_EQ(gp.num_distinct(), 14u);

  const auto fresh = make_points(rng, 2, 0.1, 0.9, used);
  const std::vector<Rows> batches = {
      {x0[0], x0[3], x0[3]},       // known inputs only
      {x0[5], fresh[0]},           // a known input and a new one
      {fresh[1], fresh[1]},        // one new input, twice
  };
  auto x_all = x0;
  auto y_all = y0;
  for (const auto& xb : batches) {
    const auto yb = noisy_targets_of(xb, rng);
    update_rows(gp, xb, yb);
    x_all = concat(x_all, xb);
    y_all = concat(y_all, yb);
    GpRegressor union_fit(unit_grid(), fixed_options());
    fit_rows(union_fit, x_all, y_all);
    expect_posteriors_identical(gp, union_fit);
  }
  EXPECT_EQ(gp.num_points(), x0.size() + 7);
  EXPECT_EQ(gp.num_distinct(), 16u);
}

TEST(GpIncremental, AllNewInputsExtendOverRepeatedGroups) {
  // New cells appended to a bank whose inputs carry several rows each.
  Rng rng(0x16c00011ULL);
  Rows used;
  auto x0 = make_seed_points(rng, 10, used);
  const Rows repeats(x0.begin(), x0.begin() + 8);
  x0.insert(x0.end(), repeats.begin(), repeats.end());
  const auto y0 = noisy_targets_of(x0, rng);
  GpRegressor gp(unit_grid(), fixed_options());
  fit_rows(gp, x0, y0);
  const auto xb = make_points(rng, 3, 0.1, 0.9, used);
  const auto yb = noisy_targets_of(xb, rng);
  update_rows(gp, xb, yb);
  EXPECT_EQ(gp.num_distinct(), 12u + 3u);
  GpRegressor union_fit(unit_grid(), fixed_options());
  fit_rows(union_fit, concat(x0, xb), concat(y0, yb));
  expect_posteriors_identical(gp, union_fit);
}

/// Posterior, predictions and coloured samples of `a` and `b` are equal
/// bit for bit (the same normals drive both samplers).
void expect_models_identical(const GpRegressor& a, const GpRegressor& b,
                             const la::Matrix& z) {
  ASSERT_EQ(a.num_points(), b.num_points());
  ASSERT_EQ(a.num_distinct(), b.num_distinct());
  expect_posteriors_identical(a, b);
  const la::Matrix sa = a.sample_joint_given(z);
  const la::Matrix sb = b.sample_joint_given(z);
  EXPECT_EQ(sa.data(), sb.data());
}

/// Drive a model through every state change a GP sees in service — fit,
/// repeated-input and new-input updates, an outlier, an MLE refit on the
/// union of the data, copy-assignment from a model over another input set,
/// snapshot/restore — and compare it after each step with a cold rebuild
/// from its snapshot, whose kernel table is formed afresh. Returns the
/// model's final diagnostics.
GpFitDiagnostics expect_cache_exact_through_every_step(GpOptions options) {
  options.mle_restarts = 2;
  options.mle_max_evals = 120;
  GpRegressor cached(unit_grid(), options);

  Rng rng(0x16c00013ULL);
  Rng zrng(0x16c00014ULL);
  la::Matrix z(4, cached.grid().size());
  for (double& v : z.data()) v = zrng.normal();
  const auto step = [&](const char* what, const auto& op) {
    SCOPED_TRACE(what);
    op(cached);
    const GpRegressor scratch = rebuilt(cached, options);
    expect_models_identical(cached, scratch, z);
  };

  Rows used;
  auto x0 = make_seed_points(rng, 14, used);
  const Rows repeats(x0.begin(), x0.begin() + 4);
  x0.insert(x0.end(), repeats.begin(), repeats.end());
  const auto y0 = noisy_targets_of(x0, rng);
  const auto inside = make_points(rng, 4, 0.1, 0.9, used);
  const auto batch = [&](Rows x) {
    return std::make_pair(x, noisy_targets_of(x, rng));
  };
  const auto repeated = batch({x0[1], x0[2], x0[2]});
  const auto one_new = batch({inside[0]});
  const auto mixed = batch({x0[3], inside[1]});
  const auto two_new = batch({inside[2], x0[5]});
  const auto refit = batch({inside[3]});
  // An outlier the robust fit, when on, downweights.
  auto spike = batch({x0[4]});
  spike.second[0] += 40.0;

  step("fit", [&](GpRegressor& gp) { fit_rows(gp, x0, y0); });
  step("repeated-input update", [&](GpRegressor& gp) {
    update_rows(gp, repeated.first, repeated.second);
  });
  step("new distinct input", [&](GpRegressor& gp) {
    update_rows(gp, one_new.first, one_new.second);
  });
  step("known and new input", [&](GpRegressor& gp) {
    update_rows(gp, mixed.first, mixed.second);
  });
  step("outlier", [&](GpRegressor& gp) {
    update_rows(gp, spike.first, spike.second);
  });
  step("new and known input", [&](GpRegressor& gp) {
    update_rows(gp, two_new.first, two_new.second);
  });
  step("copy-assignment", [&](GpRegressor& gp) {
    // A model over another input set, with its own table and
    // hyperparameters, takes gp's state, and the sequence goes on from
    // that copy.
    const Rows elsewhere = product_grid({0.0, 0.5, 1.5, 2.0}, {0.0, 2.0});
    GpRegressor other(elsewhere, options);
    fit_rows(other, elsewhere, targets_of(elsewhere));
    other = gp;
    gp = other;
  });
  step("refit on the union", [&](GpRegressor& gp) {
    // Every row so far plus one more: the MLE moves the hyperparameters.
    auto x = x0;
    auto y = y0;
    for (const auto& rows : {repeated, one_new, mixed, spike, two_new, refit}) {
      x = concat(x, rows.first);
      y = concat(y, rows.second);
    }
    const KernelParams before = gp.params();
    fit_rows(gp, x, y);
    EXPECT_NE(gp.params().pack(), before.pack());
  });
  step("repeated-input update after the refit", [&](GpRegressor& gp) {
    update_rows(gp, repeated.first, repeated.second);
  });
  step("snapshot/restore", [&](GpRegressor& gp) {
    const obs::json::Value snap = gp.snapshot();
    update_rows(gp, one_new.first, one_new.second);  // state the restore replaces
    gp.restore(snap);
  });
  step("update after the restore", [&](GpRegressor& gp) {
    update_rows(gp, mixed.first, mixed.second);
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
