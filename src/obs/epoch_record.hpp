// obs::EpochRecord — one service epoch's telemetry, unified and exportable.
//
// Before this existed, an epoch's diagnostics were scattered: learning
// counters in core::EpochHealth, GP robustness in gp::GpFitDiagnostics,
// what the resilience loop did in the RepairAction log, the BO trajectory
// in benefit_trace, and nothing at all for timing. EpochRecord is the one
// struct that carries all of it — epoch outcome, health counters, sim
// summary, repair log, benefit trace, plus the obs metrics/span snapshots
// — with a deterministic JSON serialization (fixed key order, shortest-
// round-trip float formatting) and a strict parser, so records can be
// exported by a service, checked in CI (tools/pamo_trace --check) and
// diffed across runs.
//
// obs sits below core in the dependency order, so this header knows
// nothing about core types; core/obs_export.hpp does the mapping from a
// SchedulingService::EpochReport into this flat record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace pamo::obs {

struct EpochRecord {
  /// Schema identifier serialized as the first key of every export.
  static constexpr const char* kSchema = "pamo.epoch_record.v1";

  std::uint64_t epoch = 0;
  bool feasible = false;
  bool fallback = false;
  bool repaired = false;

  /// Flattened core::EpochHealth + LearningHealth (which itself aggregates
  /// the per-GP gp::GpFitDiagnostics of the epoch's outcome models).
  struct Health {
    std::uint64_t samples_rejected = 0;
    std::uint64_t samples_repaired = 0;
    std::uint64_t outliers_downweighted = 0;
    std::uint64_t cholesky_recoveries = 0;
    std::uint64_t iteration_failures = 0;
    std::uint64_t watchdog_fires = 0;
    std::uint64_t inconsistent_pairs = 0;
    double max_jitter_applied = 0.0;
    bool heuristic_fallback = false;
    bool optimizer_error = false;
    bool repair_error = false;
    bool fallback_taken = false;
    std::string error_message;
    // Continual-learning flag (post-v1 addition; absent in records
    // written by older builds and parsed as its default).
    bool warm_started = false;
  } health;

  /// Aggregate of one sim::SimReport (per-stream detail stays in the
  /// report; the record carries what dashboards and CI checks consume).
  struct SimSummary {
    std::uint64_t total_frames = 0;
    std::uint64_t total_emitted = 0;
    std::uint64_t total_dropped = 0;
    std::uint64_t dropped_by_loss = 0;
    std::uint64_t slo_violations = 0;
    std::uint64_t unserved_streams = 0;
    double mean_latency = 0.0;
    double max_jitter = 0.0;
    double total_queue_delay = 0.0;
  };
  SimSummary sim;
  /// Validation of the repaired decision; meaningful when repaired.
  SimSummary post_repair_sim;

  struct Repair {
    std::string kind;
    std::string detail;
  };
  std::vector<Repair> repairs;

  /// Stream churn & admission accounting (post-v1 additions, absent in
  /// older records). Invariant checked by `pamo_trace --check`:
  /// admitted + deferred + shed == offered.
  struct Churn {
    std::uint64_t offered = 0;
    std::uint64_t arrived = 0;
    std::uint64_t departed = 0;
    std::uint64_t admitted = 0;
    std::uint64_t deferred = 0;
    std::uint64_t shed = 0;
    double load_factor = 1.0;
    double offered_load = 0.0;
    double admitted_load = 0.0;
  };
  Churn churn;

  /// The governor's structured admission log (decision is one of
  /// "admit", "defer", "shed", "release").
  struct GovernorEntry {
    std::uint64_t epoch = 0;
    std::uint64_t stream = 0;
    std::string decision;
    std::string detail;
  };
  std::vector<GovernorEntry> governor_actions;

  /// Model-estimated incumbent benefit after each BO iteration.
  std::vector<double> benefit_trace;

  MetricsSnapshot metrics;
  SpanSnapshot spans;
};

/// Deterministic serialization: same record, same bytes.
[[nodiscard]] std::string to_json(const EpochRecord& record);

/// Strict parse + schema validation; throws pamo::Error on malformed
/// JSON, a wrong/missing schema tag, or mistyped fields.
[[nodiscard]] EpochRecord record_from_json(const std::string& text);

}  // namespace pamo::obs
