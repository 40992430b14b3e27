#include "core/outcome_models.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/normal.hpp"
#include "common/thread_pool.hpp"

namespace pamo::core {

namespace {

double metric_of(const eva::StreamMeasurement& m, Metric metric) {
  switch (metric) {
    case Metric::kAccuracy: return m.accuracy;
    case Metric::kBandwidth: return m.bandwidth_mbps;
    case Metric::kCompute: return m.compute_tflops;
    case Metric::kPower: return m.power_watts;
    case Metric::kProcTime: return m.proc_time;
  }
  return 0.0;
}

}  // namespace

OutcomeModels::OutcomeModels(const eva::ConfigSpace& space,
                             gp::GpOptions gp_options) {
  std::vector<std::vector<double>> inputs;
  for (auto r : space.resolutions()) {
    for (auto s : space.fps_knobs()) {
      grid_.push_back({r, s});
      inputs.push_back({static_cast<double>(r), static_cast<double>(s)});
    }
  }
  models_.reserve(kNumMetrics);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    gp::GpOptions options = gp_options;
    options.seed = gp_options.seed + m;  // decorrelate MLE restarts
    models_.emplace_back(inputs, options);
  }
  PAMO_ENSURES(grid_.size() == space.resolutions().size() *
                                   space.fps_knobs().size() &&
                   models_.size() == kNumMetrics,
               "outcome models must cover the full knob grid, one GP per "
               "metric");
}

void OutcomeModels::fit(const std::vector<eva::StreamConfig>& configs,
                        const std::vector<eva::StreamMeasurement>& measurements) {
  PAMO_CHECK(configs.size() == measurements.size(),
             "configs/measurements size mismatch");
  PAMO_CHECK(configs.size() >= 2, "outcome models need >= 2 profiles");
  const std::vector<std::size_t> at = grid_indices(configs);
  // The five metric fits are independent (per-model options carry their
  // own MLE seed and no model touches another's state), so fan them out.
  parallel_for(kNumMetrics, [&](std::size_t m) {
    std::vector<double> targets;
    targets.reserve(measurements.size());
    for (const auto& meas : measurements) {
      targets.push_back(metric_of(meas, static_cast<Metric>(m)));
    }
    models_[m].fit(at, targets);
  });
}

void OutcomeModels::update(
    const std::vector<eva::StreamConfig>& configs,
    const std::vector<eva::StreamMeasurement>& measurements) {
  PAMO_CHECK(configs.size() == measurements.size(),
             "configs/measurements size mismatch");
  PAMO_CHECK(is_fit(), "update before fit");
  const std::vector<std::size_t> at = grid_indices(configs);
  parallel_for(kNumMetrics, [&](std::size_t m) {
    std::vector<double> targets;
    targets.reserve(measurements.size());
    for (const auto& meas : measurements) {
      targets.push_back(metric_of(meas, static_cast<Metric>(m)));
    }
    models_[m].update(at, targets);
  });
}

bool OutcomeModels::is_fit() const {
  return !models_.empty() && models_.front().is_fit();
}

double OutcomeModels::mean(Metric metric,
                           const eva::StreamConfig& config) const {
  return models_[static_cast<std::size_t>(metric)].predict_mean(
      grid_index(config));
}

std::size_t OutcomeModels::grid_index(const eva::StreamConfig& config) const {
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    if (grid_[i] == config) return i;
  }
  throw Error("configuration is not on the knob grid");
}

std::vector<std::size_t> OutcomeModels::grid_indices(
    const std::vector<eva::StreamConfig>& configs) const {
  std::vector<std::size_t> at;
  at.reserve(configs.size());
  for (const auto& c : configs) at.push_back(grid_index(c));
  return at;
}

la::Matrix latin_hypercube_normals(std::size_t num_samples,
                                   std::size_t columns, Rng& rng) {
  PAMO_CHECK(num_samples < (std::size_t{1} << 20),
             "Latin-hypercube strata must stay resolvable in a double");
  const auto strata_count = static_cast<double>(num_samples);
  std::vector<std::size_t> strata(num_samples);
  la::Matrix z(num_samples, columns);
  for (std::size_t i = 0; i < columns; ++i) {
    std::iota(strata.begin(), strata.end(), std::size_t{0});
    rng.shuffle(strata);
    for (std::size_t s = 0; s < num_samples; ++s) {
      // 32 random bits on a midpoint lattice: u ∈ [2⁻³³, 1 − 2⁻³³], so
      // π + u is exact and (π + u) / S lies strictly inside (0, 1).
      const double u =
          (static_cast<double>(rng.next_u64() >> 32) + 0.5) * 0x1.0p-32;
      z(s, i) =
          normal_quantile((static_cast<double>(strata[s]) + u) / strata_count);
    }
  }
  return z;
}

std::vector<la::Matrix> draw_scenario_normals(std::size_t num_samples,
                                              std::size_t columns, Rng& rng) {
  std::vector<la::Matrix> normals;
  normals.reserve(kNumMetrics);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    normals.push_back(latin_hypercube_normals(num_samples, columns, rng));
  }
  return normals;
}

std::vector<la::Matrix> OutcomeModels::sample_grid_tables(
    std::size_t num_samples, Rng& rng) const {
  PAMO_CHECK(is_fit(), "sample before fit");
  // Draw every normal serially, metric by metric, then colour the metrics
  // concurrently: the colouring never touches `rng`.
  return colour_grid_tables(
      draw_scenario_normals(num_samples, grid_.size(), rng));
}

std::vector<la::Matrix> OutcomeModels::colour_grid_tables(
    const std::vector<la::Matrix>& normals) const {
  PAMO_CHECK(is_fit(), "sample before fit");
  PAMO_CHECK(normals.size() == kNumMetrics, "one normal table per metric");
  std::vector<la::Matrix> tables(kNumMetrics);
  parallel_for(kNumMetrics, [&](std::size_t m) {
    tables[m] = models_[m].sample_joint_given(normals[m]);
  });
  return tables;
}

std::size_t OutcomeModels::num_points() const {
  std::size_t most = 0;
  for (const auto& model : models_) {
    most = std::max(most, model.num_points());
  }
  return most;
}

gp::GpFitDiagnostics OutcomeModels::diagnostics() const {
  PAMO_CHECK(models_.size() == kNumMetrics,
             "diagnostics over a partially constructed model set");
  gp::GpFitDiagnostics total;
  for (const auto& model : models_) {
    const auto& d = model.diagnostics();
    total.rows_rejected += d.rows_rejected;
    total.outliers_downweighted += d.outliers_downweighted;
    total.cholesky_recoveries += d.cholesky_recoveries;
    total.fit_jitter = std::max(total.fit_jitter, d.fit_jitter);
    total.posterior_jitter =
        std::max(total.posterior_jitter, d.posterior_jitter);
  }
  return total;
}

// pamo-analyze: snapshot(OutcomeModels)
obs::json::Value OutcomeModels::snapshot() const {
  obs::json::Value arr = obs::json::Value::array();
  for (const auto& model : models_) arr.push_back(model.snapshot());
  return arr;
}

// pamo-analyze: snapshot(OutcomeModels)
void OutcomeModels::restore(const obs::json::Value& snap) {
  PAMO_CHECK(snap.items().size() == models_.size(),
             "outcome-model snapshot metric count mismatch");
  // Restore into copies (same per-metric options) and commit only after
  // every metric decoded: a failure at metric k leaves all of them as
  // they were.
  std::vector<gp::GpRegressor> restored = models_;
  for (std::size_t m = 0; m < restored.size(); ++m) {
    restored[m].restore(snap.items()[m]);
  }
  models_ = std::move(restored);
}

la::Matrix OutcomeModels::mean_grid_table() const {
  PAMO_CHECK(is_fit(), "mean table before fit");
  la::Matrix table(kNumMetrics, grid_.size());
  parallel_for(kNumMetrics, [&](std::size_t m) {
    for (std::size_t g = 0; g < grid_.size(); ++g) {
      table(m, g) = models_[m].predict_mean(g);
    }
  });
  return table;
}

}  // namespace pamo::core
