// GP snapshot/restore is an exact-state transplant: the restored model
// predicts bit-identically AND *continues* bit-identically (restore
// re-derives the standardization, kernel table and factor from the cells
// with the same deterministic solve, and carries the diagnostics over, so
// future updates run the same arithmetic). A snapshot whose inputs are
// not on the model's grid is rejected whole.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "support/gp_grid.hpp"

namespace pamo::gp {
namespace {

/// The 9 × 9 grid over [0, 4]².
Rows square_grid() {
  std::vector<double> axis;
  for (int i = 0; i <= 8; ++i) axis.push_back(0.5 * i);
  return product_grid(axis, axis);
}

/// `n` grid indices drawn uniformly with replacement.
std::vector<std::size_t> grid_inputs(std::size_t n, Rng& rng) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < n; ++i) at.push_back(rng.uniform_index(81));
  return at;
}

std::vector<double> targets_of(const std::vector<std::size_t>& at, Rng& rng) {
  const Rows grid = square_grid();
  std::vector<double> y;
  for (const std::size_t g : at) {
    const auto& row = grid[g];
    y.push_back(row[0] * 0.7 - 0.2 * row[1] * row[1] + 0.05 * rng.normal());
  }
  return y;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Means and posterior covariances of `a` and `b` are equal bit for bit
/// over the whole grid.
void expect_same_predictions(const GpRegressor& a, const GpRegressor& b) {
  const Posterior pa = a.posterior();
  const Posterior pb = b.posterior();
  for (std::size_t g = 0; g < a.grid().size(); ++g) {
    EXPECT_EQ(bits(a.predict_mean(g)), bits(b.predict_mean(g))) << g;
    EXPECT_EQ(bits(pa.mean[g]), bits(pb.mean[g])) << g;
    for (std::size_t h = 0; h < a.grid().size(); ++h) {
      EXPECT_EQ(bits(pa.covariance(g, h)), bits(pb.covariance(g, h)));
    }
  }
}

TEST(GpSnapshot, RestoredModelPredictsBitIdentically) {
  Rng rng(101);
  const auto x = grid_inputs(24, rng);
  const auto y = targets_of(x, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 60;
  GpRegressor original(square_grid(), options);
  original.fit(x, y);

  GpRegressor restored(square_grid(), options);
  restored.restore(original.snapshot());

  ASSERT_TRUE(restored.is_fit());
  EXPECT_EQ(restored.num_points(), original.num_points());
  expect_same_predictions(restored, original);
  EXPECT_EQ(bits(restored.params().log_signal_var),
            bits(original.params().log_signal_var));
  EXPECT_EQ(bits(restored.params().log_noise_var),
            bits(original.params().log_noise_var));
}

TEST(GpSnapshot, SnapshotRoundTripsThroughJsonBytes) {
  // The snapshot must survive its serialized form, not just the in-memory
  // Value tree — dump + strict parse + restore is the checkpoint path.
  Rng rng(102);
  const auto x = grid_inputs(16, rng);
  const auto y = targets_of(x, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  GpRegressor original(square_grid(), options);
  original.fit(x, y);

  const std::string bytes = original.snapshot().dump();
  GpRegressor restored(square_grid(), options);
  restored.restore(obs::json::Value::parse(bytes));
  expect_same_predictions(restored, original);
}

TEST(GpSnapshot, ContinuedUpdatesMatchTheUninterruptedModel) {
  // The resume property: restore, then keep learning — every future
  // update must produce the same model as never having stopped.
  Rng rng(103);
  const auto x = grid_inputs(20, rng);
  const auto y = targets_of(x, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 60;
  GpRegressor uninterrupted(square_grid(), options);
  uninterrupted.fit(x, y);

  GpRegressor restored(square_grid(), options);
  restored.restore(uninterrupted.snapshot());

  // Three rounds of fresh observations, fed to both models identically.
  Rng stream_rng(55);
  for (int round = 0; round < 3; ++round) {
    const auto x_new = grid_inputs(4, stream_rng);
    const auto y_new = targets_of(x_new, stream_rng);
    uninterrupted.update(x_new, y_new);
    restored.update(x_new, y_new);
  }
  ASSERT_EQ(restored.num_points(), uninterrupted.num_points());
  expect_same_predictions(restored, uninterrupted);
  EXPECT_EQ(restored.snapshot().dump(), uninterrupted.snapshot().dump());
}

TEST(GpSnapshot, DiagnosticsSurviveTheRoundTrip) {
  Rng rng(104);
  auto x = grid_inputs(18, rng);
  auto y = targets_of(x, rng);
  y[3] = 80.0;  // one gross outlier so robust machinery leaves a trace
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  options.robust_noise = true;
  GpRegressor original(square_grid(), options);
  original.fit(x, y);

  GpRegressor restored(square_grid(), options);
  restored.restore(original.snapshot());
  EXPECT_EQ(restored.diagnostics().outliers_downweighted,
            original.diagnostics().outliers_downweighted);
  EXPECT_EQ(restored.diagnostics().rows_rejected,
            original.diagnostics().rows_rejected);
  EXPECT_EQ(bits(restored.diagnostics().fit_jitter),
            bits(original.diagnostics().fit_jitter));
}

TEST(GpSnapshot, UnfitModelRoundTrips) {
  GpRegressor original(square_grid());
  GpRegressor restored(square_grid());
  restored.restore(original.snapshot());
  EXPECT_FALSE(restored.is_fit());
}

TEST(GpSnapshot, RestoreRejectsMangledSnapshots) {
  Rng rng(105);
  const auto x = grid_inputs(12, rng);
  const auto y = targets_of(x, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  GpRegressor original(square_grid(), options);
  original.fit(x, y);

  obs::json::Value snap = original.snapshot();
  // `snap` with cells.<key> replaced.
  const auto with_cells = [&snap](const char* key, obs::json::Value value) {
    obs::json::Value out = obs::json::Value::parse(snap.dump());
    obs::json::Value cells = out.at("cells");
    cells.set(key, std::move(value));
    out.set("cells", std::move(cells));
    return out;
  };
  // Drop cells from the counts only: sizes disagree, restore must throw,
  // and the target model must not be half-written into a fit state.
  obs::json::Value shorter = obs::json::Value::array();
  shorter.push_back(obs::json::Value(1.0));
  const obs::json::Value mangled = with_cells("count", std::move(shorter));
  GpRegressor victim(square_grid(), options);
  EXPECT_THROW(victim.restore(mangled), pamo::Error);
  EXPECT_FALSE(victim.is_fit());

  // A fitted target keeps its own state, bit for bit, through every
  // rejected snapshot: short weights, a weight above its count, a cell of
  // the wrong width, and hyperparameters of the wrong dimension.
  Rng other_rng(106);
  const auto x2 = grid_inputs(10, other_rng);
  GpRegressor fitted(square_grid(), options);
  fitted.fit(x2, targets_of(x2, other_rng));
  const double before = fitted.predict_mean(10);
  const obs::json::Value short_weights =
      with_cells("weight", obs::json::Value::array());
  obs::json::Value heavy = snap.at("cells").at("weight");
  obs::json::Value heavier = obs::json::Value::array();
  for (std::size_t i = 0; i < heavy.items().size(); ++i) {
    heavier.push_back(obs::json::Value(i == 2 ? 1000.0 : 1.0));
  }
  const obs::json::Value overweight = with_cells("weight", std::move(heavier));
  obs::json::Value rows = snap.at("cells").at("x");
  obs::json::Value narrow = obs::json::Value::array();
  narrow.push_back(obs::json::Value(0.5));
  obs::json::Value patched = obs::json::Value::array();
  for (std::size_t i = 0; i < rows.items().size(); ++i) {
    patched.push_back(i == 3 ? narrow : rows.items()[i]);
  }
  const obs::json::Value ragged = with_cells("x", std::move(patched));
  obs::json::Value wrong_dim = obs::json::Value::parse(snap.dump());
  wrong_dim.set("dim", obs::json::Value(std::uint64_t{3}));
  const obs::json::Value* const rejected[] = {
      &mangled, &short_weights, &overweight, &ragged, &wrong_dim};
  for (const obs::json::Value* bad : rejected) {
    EXPECT_THROW(fitted.restore(*bad), pamo::Error);
    EXPECT_TRUE(fitted.is_fit());
    EXPECT_EQ(fitted.num_points(), x2.size());
    EXPECT_EQ(bits(fitted.predict_mean(10)), bits(before));
  }
}

TEST(GpSnapshot, OffGridInputsAreRejectedWhole) {
  // A snapshot is restored onto its model's grid: a cell, or a row of an
  // old row-format snapshot, whose input is no grid point rejects the
  // whole snapshot and leaves the target as it was.
  Rng rng(108);
  const auto x = grid_inputs(14, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  GpRegressor source(square_grid(), options);
  source.fit(x, targets_of(x, rng));
  const obs::json::Value snap = source.snapshot();
  const auto with_x = [](const obs::json::Value& base, const char* key,
                         std::size_t at, std::vector<double> row) {
    obs::json::Value out = obs::json::Value::parse(base.dump());
    obs::json::Value* holder = &out;
    obs::json::Value cells;
    if (out.find("cells") != nullptr) {
      cells = out.at("cells");
      holder = &cells;
    }
    Rows rows = ckpt::codec::rows_from_json(holder->at(key));
    rows[at] = std::move(row);
    holder->set(key, ckpt::codec::rows_to_json(rows));
    if (holder == &cells) out.set("cells", std::move(cells));
    return out;
  };
  // Between two grid points, and outside the grid's box.
  const obs::json::Value between = with_x(snap, "x", 2, {0.25, 1.0});
  const obs::json::Value outside = with_x(snap, "x", 0, {4.5, 0.0});

  // The same cells as rows of the format that stored every row.
  obs::json::Value rows_format = obs::json::Value::object();
  rows_format.set("dim", obs::json::Value(std::uint64_t{2}));
  rows_format.set("x_raw", snap.at("cells").at("x"));
  rows_format.set("y_raw", snap.at("cells").at("wmean"));
  rows_format.set(
      "noise_scale",
      ckpt::codec::doubles_to_json(std::vector<double>(
          snap.at("cells").at("x").items().size(), 1.0)));
  rows_format.set("params", snap.at("params"));
  rows_format.set("diagnostics", snap.at("diagnostics"));
  GpRegressor from_rows(square_grid(), options);
  from_rows.restore(rows_format);  // on the grid: accepted
  ASSERT_TRUE(from_rows.is_fit());
  const obs::json::Value off_row = with_x(rows_format, "x_raw", 1, {1.0, 3.7});

  Rng other_rng(109);
  const auto x2 = grid_inputs(9, other_rng);
  GpRegressor fitted(square_grid(), options);
  fitted.fit(x2, targets_of(x2, other_rng));
  const std::string before = fitted.snapshot().dump();
  const Posterior post_before = fitted.posterior();
  for (const obs::json::Value* bad : {&between, &outside, &off_row}) {
    EXPECT_THROW(fitted.restore(*bad), pamo::Error);
    EXPECT_EQ(fitted.snapshot().dump(), before);
    const Posterior post = fitted.posterior();
    for (std::size_t g = 0; g < post.mean.size(); ++g) {
      EXPECT_EQ(bits(post.mean[g]), bits(post_before.mean[g]));
      EXPECT_EQ(bits(post.covariance(g, g)), bits(post_before.covariance(g, g)));
    }
  }
  GpRegressor unfit(square_grid(), options);
  EXPECT_THROW(unfit.restore(between), pamo::Error);
  EXPECT_FALSE(unfit.is_fit());
}

TEST(GpSnapshot, SparseBackendSnapshotIsRejected) {
  Rng rng(107);
  const auto x = grid_inputs(12, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  GpRegressor source(square_grid(), options);
  source.fit(x, targets_of(x, rng));
  obs::json::Value snap = source.snapshot();
  snap.set("sparse", obs::json::Value::object());
  GpRegressor victim(square_grid(), options);
  EXPECT_THROW(victim.restore(snap), pamo::Error);
  EXPECT_FALSE(victim.is_fit());
}

TEST(GpSnapshot, ParentFormatSnapshotRestoresFromItsRawRows) {
  // Checkpoints written before the cells carry every raw row with its
  // noise scale, and some also the derived state over the rows: scaled
  // inputs x, standardized y, the n×n factor, alpha, the scaling and the
  // factor epoch. Restore folds the raw rows into cells, each with weight
  // 1/λ, and ignores the rest, so the result predicts exactly like a
  // fixed-parameter fit on those rows. Builds with the CUSUM drift
  // detector also wrote its score and counters, and builds with the
  // factor-extension update their update-path counters; those are ignored
  // too, and not written back.
  KernelParams params;
  params.log_lengthscales = {std::log(0.4), std::log(0.7)};
  params.log_signal_var = 0.0;
  params.log_noise_var = std::log(0.05);
  GpOptions options;
  options.fixed_params = params;
  // Repeated inputs, as a knob grid produces them.
  const std::vector<std::vector<double>> x = {
      {0.0, 1.0}, {2.0, 3.0}, {0.0, 1.0}, {4.0, 2.0}, {2.0, 3.0}, {1.0, 0.0}};
  const std::vector<double> y = {0.3, -0.2, 0.4, 1.1, -0.1, 0.6};
  GpRegressor fixed_fit(square_grid(), options);
  fixed_fit.fit(indices_of(fixed_fit, x), y);

  obs::json::Value parent = obs::json::Value::object();
  parent.set("dim", obs::json::Value(std::uint64_t{2}));
  parent.set("x_raw", ckpt::codec::rows_to_json(x));
  parent.set("y_raw", ckpt::codec::doubles_to_json(y));
  parent.set("noise_scale",
             ckpt::codec::doubles_to_json(std::vector<double>(x.size(), 1.0)));
  parent.set("params", fixed_fit.snapshot().at("params"));
  std::vector<std::vector<double>> scaled;
  for (const auto& row : x) scaled.push_back({row[0] / 4.0, row[1] / 3.0});
  la::Matrix k = kernel_matrix(options.kernel, params, scaled);
  k.add_diagonal(std::exp(params.log_noise_var));
  const std::optional<la::Cholesky> chol(std::in_place, k);
  parent.set("x", ckpt::codec::rows_to_json(scaled));
  parent.set("y", ckpt::codec::doubles_to_json(y));
  parent.set("x_lo", ckpt::codec::doubles_to_json({0.0, 0.0}));
  parent.set("x_hi", ckpt::codec::doubles_to_json({4.0, 3.0}));
  parent.set("y_mean", obs::json::Value(0.35));
  parent.set("y_std", obs::json::Value(0.45));
  parent.set("chol", ckpt::codec::cholesky_to_json(chol));
  parent.set("alpha", ckpt::codec::doubles_to_json(chol->solve(y)));
  parent.set("factor_epoch", obs::json::Value(std::uint64_t{7}));
  parent.set("drift_cusum", obs::json::Value(1.5));
  obs::json::Value diagnostics = fixed_fit.snapshot().at("diagnostics");
  diagnostics.set("incremental_updates", obs::json::Value(std::uint64_t{4}));
  diagnostics.set("incremental_fallbacks", obs::json::Value(std::uint64_t{1}));
  diagnostics.set("drift_fires", obs::json::Value(std::uint64_t{2}));
  diagnostics.set("drift_downweighted", obs::json::Value(std::uint64_t{12}));
  diagnostics.set("drift_score", obs::json::Value(0.75));
  parent.set("diagnostics", std::move(diagnostics));

  GpRegressor restored(square_grid(), options);
  restored.restore(obs::json::Value::parse(parent.dump()));
  ASSERT_EQ(restored.num_points(), x.size());
  EXPECT_EQ(restored.num_distinct(), 4u);
  expect_same_predictions(restored, fixed_fit);
  EXPECT_EQ(restored.snapshot().dump(), fixed_fit.snapshot().dump());

  // A robust-inflated row folds into its cell with weight 1/λ, and the
  // cells then keep learning like those of a new-format checkpoint.
  std::vector<double> lambda(x.size(), 1.0);
  lambda[2] = 4.0;  // the second row at {0, 1}
  obs::json::Value inflated = obs::json::Value::parse(parent.dump());
  inflated.set("noise_scale", ckpt::codec::doubles_to_json(lambda));
  GpRegressor folded(square_grid(), options);
  folded.restore(inflated);
  const obs::json::Value cell = folded.snapshot().at("cells");
  EXPECT_EQ(cell.at("count").items()[0].as_double(), 2.0);  // pamo-analyze: allow(float-eq)
  EXPECT_EQ(cell.at("weight").items()[0].as_double(), 1.25);  // pamo-analyze: allow(float-eq)
  EXPECT_NEAR(cell.at("mean").items()[0].as_double(), 0.35, 1e-15);
  EXPECT_NEAR(cell.at("wmean").items()[0].as_double(),
              (0.3 + 0.25 * 0.4) / 1.25, 1e-15);
  GpRegressor resumed(square_grid(), options);
  resumed.restore(folded.snapshot());
  const std::vector<std::size_t> xb =
      indices_of(folded, {{0.0, 1.0}, {3.0, 3.0}});
  const std::vector<double> yb = {0.35, 0.9};
  folded.update(xb, yb);
  resumed.update(xb, yb);
  EXPECT_EQ(resumed.snapshot().dump(), folded.snapshot().dump());
  EXPECT_EQ(folded.num_points(), x.size() + xb.size());
}

}  // namespace
}  // namespace pamo::gp
