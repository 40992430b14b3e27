// GP snapshot/restore is an exact-state transplant: the restored model
// predicts bit-identically AND *continues* bit-identically (restore
// re-derives the factor, standardization and distinct rows with the same
// deterministic solve, and carries the diagnostics over, so future
// incremental updates take the same code path with the same arithmetic).
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

namespace pamo::gp {
namespace {

std::vector<std::vector<double>> grid_inputs(std::size_t n, Rng& rng) {
  std::vector<std::vector<double>> x;
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back({rng.uniform() * 4.0, rng.uniform() * 4.0});
  }
  return x;
}

std::vector<double> targets_of(const std::vector<std::vector<double>>& x,
                               Rng& rng) {
  std::vector<double> y;
  for (const auto& row : x) {
    y.push_back(row[0] * 0.7 - 0.2 * row[1] * row[1] + 0.05 * rng.normal());
  }
  return y;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(GpSnapshot, RestoredModelPredictsBitIdentically) {
  Rng rng(101);
  const auto x = grid_inputs(24, rng);
  const auto y = targets_of(x, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 60;
  GpRegressor original(options);
  original.fit(x, y);

  GpRegressor restored(options);
  restored.restore(original.snapshot());

  ASSERT_TRUE(restored.is_fit());
  EXPECT_EQ(restored.num_points(), original.num_points());
  Rng probe_rng(7);
  for (const auto& q : grid_inputs(20, probe_rng)) {
    EXPECT_EQ(bits(restored.predict_mean(q)), bits(original.predict_mean(q)));
    EXPECT_EQ(bits(restored.predict_var(q)), bits(original.predict_var(q)));
  }
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
  GpRegressor original(options);
  original.fit(x, y);

  const std::string bytes = original.snapshot().dump();
  GpRegressor restored(options);
  restored.restore(obs::json::Value::parse(bytes));
  Rng probe_rng(9);
  for (const auto& q : grid_inputs(10, probe_rng)) {
    EXPECT_EQ(bits(restored.predict_mean(q)), bits(original.predict_mean(q)));
  }
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
  GpRegressor uninterrupted(options);
  uninterrupted.fit(x, y);

  GpRegressor restored(options);
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
  Rng probe_rng(11);
  for (const auto& q : grid_inputs(20, probe_rng)) {
    EXPECT_EQ(bits(restored.predict_mean(q)),
              bits(uninterrupted.predict_mean(q)));
    EXPECT_EQ(bits(restored.predict_var(q)),
              bits(uninterrupted.predict_var(q)));
  }
  // Same incremental-vs-rebuild path decisions on both sides.
  EXPECT_EQ(restored.diagnostics().incremental_updates,
            uninterrupted.diagnostics().incremental_updates);
  EXPECT_EQ(restored.diagnostics().incremental_fallbacks,
            uninterrupted.diagnostics().incremental_fallbacks);
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
  GpRegressor original(options);
  original.fit(x, y);

  GpRegressor restored(options);
  restored.restore(original.snapshot());
  EXPECT_EQ(restored.diagnostics().outliers_downweighted,
            original.diagnostics().outliers_downweighted);
  EXPECT_EQ(restored.diagnostics().rows_rejected,
            original.diagnostics().rows_rejected);
  EXPECT_EQ(bits(restored.diagnostics().fit_jitter),
            bits(original.diagnostics().fit_jitter));
}

TEST(GpSnapshot, UnfitModelRoundTrips) {
  GpRegressor original;
  GpRegressor restored;
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
  GpRegressor original(options);
  original.fit(x, y);

  obs::json::Value snap = original.snapshot();
  // Drop rows from y only: sizes disagree, restore must throw, and the
  // target model must not be half-written into a fit state.
  obs::json::Value mangled = obs::json::Value::parse(snap.dump());
  obs::json::Value shorter = obs::json::Value::array();
  shorter.push_back(obs::json::Value(1.0));
  mangled.set("y_raw", std::move(shorter));
  GpRegressor victim(options);
  EXPECT_THROW(victim.restore(mangled), pamo::Error);
  EXPECT_FALSE(victim.is_fit());

  // A fitted target keeps its own state, bit for bit, through every
  // rejected snapshot: a short noise_scale, a row of the wrong width, and
  // hyperparameters of the wrong dimension.
  Rng other_rng(106);
  const auto x2 = grid_inputs(10, other_rng);
  GpRegressor fitted(options);
  fitted.fit(x2, targets_of(x2, other_rng));
  const double before = fitted.predict_mean({1.0, 1.0});
  obs::json::Value short_scales = obs::json::Value::parse(snap.dump());
  short_scales.set("noise_scale", obs::json::Value::array());
  obs::json::Value ragged = obs::json::Value::parse(snap.dump());
  obs::json::Value rows = ragged.at("x_raw");
  obs::json::Value narrow = obs::json::Value::array();
  narrow.push_back(obs::json::Value(0.5));
  obs::json::Value patched = obs::json::Value::array();
  for (std::size_t i = 0; i < rows.items().size(); ++i) {
    patched.push_back(i == 3 ? narrow : rows.items()[i]);
  }
  ragged.set("x_raw", std::move(patched));
  obs::json::Value wrong_dim = obs::json::Value::parse(snap.dump());
  wrong_dim.set("dim", obs::json::Value(std::uint64_t{3}));
  for (const auto* bad : {&mangled, &short_scales, &ragged, &wrong_dim}) {
    EXPECT_THROW(fitted.restore(*bad), pamo::Error);
    EXPECT_TRUE(fitted.is_fit());
    EXPECT_EQ(fitted.num_points(), x2.size());
    EXPECT_EQ(bits(fitted.predict_mean({1.0, 1.0})), bits(before));
  }
}

TEST(GpSnapshot, SparseBackendSnapshotIsRejected) {
  Rng rng(107);
  const auto x = grid_inputs(12, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  GpRegressor source(options);
  source.fit(x, targets_of(x, rng));
  obs::json::Value snap = source.snapshot();
  snap.set("sparse", obs::json::Value::object());
  GpRegressor victim(options);
  EXPECT_THROW(victim.restore(snap), pamo::Error);
  EXPECT_FALSE(victim.is_fit());
}

TEST(GpSnapshot, ParentFormatSnapshotRestoresFromItsRawRows) {
  // Checkpoints written before the distinct-row solve also carry the
  // derived state over every raw row: scaled inputs x, standardized y, the
  // n×n factor, alpha, the scaling and the factor epoch. Restore reads the
  // raw rows, noise scales and hyperparameters and ignores the rest, so
  // the result predicts exactly like a fixed-parameter fit on those rows.
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
  GpRegressor fixed_fit(options);
  fixed_fit.fit(x, y);

  obs::json::Value parent = fixed_fit.snapshot();
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

  GpRegressor restored(options);
  restored.restore(obs::json::Value::parse(parent.dump()));
  ASSERT_EQ(restored.num_points(), x.size());
  EXPECT_EQ(restored.num_distinct(), 4u);
  Rng probe_rng(12);
  for (const auto& q : grid_inputs(12, probe_rng)) {
    EXPECT_EQ(bits(restored.predict_mean(q)), bits(fixed_fit.predict_mean(q)));
    EXPECT_EQ(bits(restored.predict_var(q)), bits(fixed_fit.predict_var(q)));
  }
}

}  // namespace
}  // namespace pamo::gp
