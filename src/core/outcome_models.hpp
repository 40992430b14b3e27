// The five per-objective outcome models f = [f_acc, f_com, f_net, f_eng,
// f_lct] of Algorithm 2, realized as Gaussian processes over the 2-D
// (resolution, fps) knob space (the Figure 8 protocol: one model per
// metric, trained on pooled noisy per-stream profiles; clip-to-clip
// variation is absorbed as observation noise).
//
// Each GP is built over the knob grid and fed and queried only there:
// observations and queries are grid indices, and the models expose *joint
// posterior samples over the whole knob grid*: one (S × |grid|) table per
// metric.
// Evaluating any candidate joint configuration under MC scenario s is then
// a table lookup per stream — this is what makes qNEI over hundreds of
// pool candidates affordable.
#pragma once

#include <cstdint>
#include <vector>

#include "eva/config.hpp"
#include "eva/profiler.hpp"
#include "gp/gp_regressor.hpp"
#include "obs/json.hpp"

namespace pamo::core {

/// Metric indices inside the model bank (order is internal).
enum class Metric : std::size_t {
  kAccuracy = 0,
  kBandwidth = 1,
  kCompute = 2,
  kPower = 3,
  kProcTime = 4,
};
inline constexpr std::size_t kNumMetrics = 5;

/// Latin-hypercube standard normals, (num_samples × columns). Column by
/// column, `rng` draws one Fisher–Yates permutation π of the S strata and
/// then one uniform u_s per sample, strictly inside (0, 1); the entry is
/// z_s = Φ⁻¹((π_s + u_s) / S). So every column holds exactly one draw
/// from each of S equal-probability strata of N(0, 1). Needs S < 2²⁰.
la::Matrix latin_hypercube_normals(std::size_t num_samples,
                                   std::size_t columns, Rng& rng);

/// The driving normals of one scenario-table draw over `columns` grid
/// cells: kNumMetrics tables of latin_hypercube_normals(num_samples,
/// columns, rng), drawn metric by metric in Metric order.
/// OutcomeModels::sample_grid_tables draws these and colours them; the
/// fleet draws one set per BO round and hands it to every shard.
std::vector<la::Matrix> draw_scenario_normals(std::size_t num_samples,
                                              std::size_t columns, Rng& rng);

class OutcomeModels {
 public:
  explicit OutcomeModels(const eva::ConfigSpace& space,
                         gp::GpOptions gp_options = {});

  /// Fit all five GPs from profiled (config, measurement) pairs. Every
  /// config must be on the knob grid.
  void fit(const std::vector<eva::StreamConfig>& configs,
           const std::vector<eva::StreamMeasurement>& measurements);

  /// Append new profiles; hyperparameters are kept (cheap refit).
  void update(const std::vector<eva::StreamConfig>& configs,
              const std::vector<eva::StreamMeasurement>& measurements);

  [[nodiscard]] bool is_fit() const;

  /// Training points held by the largest metric GP (the bank feeds all
  /// five the same rows; they can differ only when a hardened GP rejected
  /// non-finite rows of one metric).
  [[nodiscard]] std::size_t num_points() const;

  /// Posterior mean of a metric at one configuration.
  [[nodiscard]] double mean(Metric metric,
                            const eva::StreamConfig& config) const;

  /// Index of a configuration in the knob grid; throws when it is off it.
  [[nodiscard]] std::size_t grid_index(const eva::StreamConfig& config) const;
  [[nodiscard]] const std::vector<eva::StreamConfig>& grid() const {
    return grid_;
  }

  /// Joint posterior sample tables over the knob grid: result[m] is an
  /// (S × |grid|) matrix for metric m. Samples of different metrics are
  /// independent; within a metric, samples are jointly drawn over the grid.
  /// The driving normals are draw_scenario_normals(S, |grid|, rng),
  /// coloured by colour_grid_tables (see DESIGN.md, "Determinism under
  /// parallelism").
  [[nodiscard]] std::vector<la::Matrix> sample_grid_tables(
      std::size_t num_samples, Rng& rng) const;

  /// Colour given standard normals into posterior sample tables:
  /// normals[m] is (S × |grid|) for metric m, and row s of it drives
  /// scenario s of result[m]. sample_grid_tables draws the normals and
  /// calls this; it is deterministic and runs the metrics in parallel.
  [[nodiscard]] std::vector<la::Matrix> colour_grid_tables(
      const std::vector<la::Matrix>& normals) const;

  /// Posterior-mean table over the grid (one row per metric).
  [[nodiscard]] la::Matrix mean_grid_table() const;

  /// Robustness diagnostics aggregated across the five metric GPs
  /// (counts summed, jitters maxed).
  [[nodiscard]] gp::GpFitDiagnostics diagnostics() const;

  /// Serialize all five metric GPs (the grid is derived from the
  /// ConfigSpace at construction and is not serialized).
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild the five GPs from snapshot(). Must be constructed with the
  /// same ConfigSpace and GpOptions as the snapshotted instance.
  void restore(const obs::json::Value& snap);

 private:
  [[nodiscard]] std::vector<std::size_t> grid_indices(
      const std::vector<eva::StreamConfig>& configs) const;

  // grid_ is derived from the ConfigSpace in the ctor (pure function of
  // the workload, not learned state); each GP is built over it, in the
  // same order.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<eva::StreamConfig> grid_;
  std::vector<gp::GpRegressor> models_;  // one per metric
};

}  // namespace pamo::core
