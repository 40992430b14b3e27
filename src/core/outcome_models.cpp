#include "core/outcome_models.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
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
  for (auto r : space.resolutions()) {
    for (auto s : space.fps_knobs()) {
      grid_.push_back({r, s});
      grid_inputs_.push_back({static_cast<double>(r), static_cast<double>(s)});
    }
  }
  models_.reserve(kNumMetrics);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    gp::GpOptions options = gp_options;
    options.seed = gp_options.seed + m;  // decorrelate MLE restarts
    models_.emplace_back(options);
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
  std::vector<std::vector<double>> inputs;
  inputs.reserve(configs.size());
  for (const auto& c : configs) {
    inputs.push_back({static_cast<double>(c.resolution),
                      static_cast<double>(c.fps)});
  }
  // The five metric fits are independent (per-model options carry their
  // own MLE seed and no model touches another's state), so fan them out.
  parallel_for(kNumMetrics, [&](std::size_t m) {
    std::vector<double> targets;
    targets.reserve(measurements.size());
    for (const auto& meas : measurements) {
      targets.push_back(metric_of(meas, static_cast<Metric>(m)));
    }
    models_[m].fit(inputs, targets);
  });
}

void OutcomeModels::update(
    const std::vector<eva::StreamConfig>& configs,
    const std::vector<eva::StreamMeasurement>& measurements) {
  PAMO_CHECK(configs.size() == measurements.size(),
             "configs/measurements size mismatch");
  PAMO_CHECK(is_fit(), "update before fit");
  std::vector<std::vector<double>> inputs;
  inputs.reserve(configs.size());
  for (const auto& c : configs) {
    inputs.push_back({static_cast<double>(c.resolution),
                      static_cast<double>(c.fps)});
  }
  parallel_for(kNumMetrics, [&](std::size_t m) {
    std::vector<double> targets;
    targets.reserve(measurements.size());
    for (const auto& meas : measurements) {
      targets.push_back(metric_of(meas, static_cast<Metric>(m)));
    }
    models_[m].update(inputs, targets, /*reoptimize=*/false);
  });
}

bool OutcomeModels::is_fit() const {
  return !models_.empty() && models_.front().is_fit();
}

double OutcomeModels::mean(Metric metric,
                           const eva::StreamConfig& config) const {
  return models_[static_cast<std::size_t>(metric)].predict_mean(
      {static_cast<double>(config.resolution),
       static_cast<double>(config.fps)});
}

std::size_t OutcomeModels::grid_index(const eva::StreamConfig& config) const {
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    if (grid_[i] == config) return i;
  }
  throw Error("configuration is not on the knob grid");
}

std::vector<la::Matrix> OutcomeModels::sample_grid_tables(
    std::size_t num_samples, Rng& rng) const {
  PAMO_CHECK(is_fit(), "sample before fit");
  // Pre-draw every standard normal serially, in exactly the order the
  // historical metric-by-metric loop consumed `rng` (metric-major, then
  // sample-major); the per-metric colouring transforms are deterministic
  // and run concurrently without touching the stream.
  const std::size_t g = grid_inputs_.size();
  std::vector<la::Matrix> normals;
  normals.reserve(kNumMetrics);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    la::Matrix z(num_samples, g);
    for (std::size_t s = 0; s < num_samples; ++s) {
      for (std::size_t i = 0; i < g; ++i) z(s, i) = rng.normal();
    }
    normals.push_back(std::move(z));
  }
  std::vector<la::Matrix> tables(kNumMetrics);
  parallel_for(kNumMetrics, [&](std::size_t m) {
    tables[m] = models_[m].sample_joint_given(grid_inputs_, normals[m]);
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
    total.incremental_updates += d.incremental_updates;
    total.incremental_fallbacks += d.incremental_fallbacks;
    total.drift_fires += d.drift_fires;
    total.drift_downweighted += d.drift_downweighted;
    total.drift_score = std::max(total.drift_score, d.drift_score);
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
      table(m, g) = models_[m].predict_mean(grid_inputs_[g]);
    }
  });
  return table;
}

}  // namespace pamo::core
