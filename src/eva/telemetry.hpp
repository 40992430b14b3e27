// Telemetry corruption: the learning-side analogue of sim::FaultPlan.
//
// Real edge telemetry is noisy in ways the Profiler's Gaussian model does
// not capture: counters wrap to NaN/Inf after a driver hiccup, a thermal
// event produces a heavy-tailed latency outlier, a sensor sticks at its
// previous reading, a report is simply lost. TelemetryCorruption injects
// exactly those artifacts into profiler measurements at configurable
// rates, deterministically: every decision is drawn from an RNG derived
// from (seed, stream, tag), never from the caller's stream, so enabling
// corruption does not perturb the scheduler's own randomness and a given
// (seed, rates) setting reproduces the same artifacts bit-for-bit.
//
// An all-zero-rate model leaves every measurement untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eva/profiler.hpp"
#include "obs/json.hpp"

namespace pamo::eva {

struct TelemetryCorruptionOptions {
  /// Per-field probability of the reading becoming NaN.
  double nan_rate = 0.0;
  /// Per-field probability of the reading becoming +Inf.
  double inf_rate = 0.0;
  /// Per-field probability of a heavy-tailed multiplicative outlier.
  double outlier_rate = 0.0;
  /// Outlier magnitude: the reading is multiplied by exp(scale·|z|) with
  /// z standard normal (log-normal tails; 1.5 gives factors up to ~100).
  double outlier_scale = 1.5;
  /// Per-field probability of a stuck-at reading (the field repeats the
  /// stream's previous true value instead of the current one).
  double stuck_rate = 0.0;
  /// Per-measurement probability that the whole report is lost.
  double drop_rate = 0.0;
  std::uint64_t seed = 0x7E1E;
};

/// Running tallies of every artifact injected so far.
struct CorruptionCounters {
  std::size_t total_measurements = 0;
  std::size_t dropped_measurements = 0;
  std::size_t nan_fields = 0;
  std::size_t inf_fields = 0;
  std::size_t outlier_fields = 0;
  std::size_t stuck_fields = 0;

  [[nodiscard]] std::size_t corrupted_fields() const {
    return nan_fields + inf_fields + outlier_fields + stuck_fields;
  }
  bool operator==(const CorruptionCounters&) const = default;
};

class TelemetryCorruption {
 public:
  explicit TelemetryCorruption(TelemetryCorruptionOptions options = {});

  [[nodiscard]] const TelemetryCorruptionOptions& options() const {
    return options_;
  }
  /// False when every rate is zero (measurements pass through untouched).
  [[nodiscard]] bool enabled() const;

  /// Corrupt one measurement in place. Returns false when the report is
  /// dropped entirely (the measurement is then meaningless). `stream` is
  /// the measured stream's index (keys the stuck-at memory); `tag` must be
  /// unique per measurement event so repeated profiles of the same stream
  /// draw independent corruption.
  bool corrupt(StreamMeasurement& measurement, std::size_t stream,
               std::uint64_t tag);

  /// A private copy for one shard of a fleet epoch, whose local stream p
  /// is fleet stream ids[p]: corruption draws and stuck-at memory are
  /// keyed by the fleet id, so a shard corrupts exactly what this instance
  /// would. Counters start at zero. Shards corrupt through their own view
  /// concurrently; merge_shard() folds each back serially. A view is
  /// transient: snapshot() does not record its id map.
  [[nodiscard]] TelemetryCorruption shard_view(
      const std::vector<std::size_t>& ids) const;

  /// Fold a shard view's counters and stuck-at memory back into this
  /// (fleet-keyed) instance.
  void merge_shard(const TelemetryCorruption& view);

  [[nodiscard]] const CorruptionCounters& counters() const {
    return counters_;
  }
  void reset_counters() { counters_ = {}; }

  /// Serialize the full model — options, counters, and the stuck-at
  /// memory (which is continuous across epochs and must survive a
  /// restart for corruption decisions to replay bit-identically).
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild from snapshot(), replacing options and all dynamic state.
  void restore(const obs::json::Value& snap);

 private:
  TelemetryCorruptionOptions options_;
  CorruptionCounters counters_;
  // Stuck-at memory: the previous true reading per stream.
  std::vector<StreamMeasurement> last_;
  std::vector<bool> has_last_;
  // Shard views only: local stream -> fleet stream id (empty = identity).
  // A view is never snapshotted.
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<std::size_t> ids_;
};

}  // namespace pamo::eva
