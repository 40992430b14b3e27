// Fleet-scale hierarchical scheduling: shard the workload with the global
// allocator (sched/shard.hpp), fit one shared outcome-model bank over the
// whole fleet (Phase 1), run one trimmed PamoScheduler per shard in
// parallel — each warm-started from that bank and re-anchored on its own
// streams — and merge the per-shard decisions into a flat PamoResult.
//
// Determinism contract: the bank is fit serially before the fan-out and
// only read during it, per-shard seeds are derived from the fleet seed
// and the shard *index* (never the worker thread), every shard runs
// against its own copy of the preference oracle and its own view of the
// telemetry corruption model, and the merge walks shards in index order —
// so the result is bit-identical at any ThreadPool size, including 1. The
// per-shard schedulers may only touch shared state read-only; the options
// check below rejects configurations that would mutate a shared learner
// from the fan-out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pamo.hpp"
#include "sched/shard.hpp"

namespace pamo::core {

/// Telemetry tag base of the shared bank's Phase-1 profiles (profile u is
/// tagged kFleetBankTelemetryTag + u): distinct from the shards' own
/// Phase-1 tags, so no fleet stream sees one corruption draw twice.
inline constexpr std::uint64_t kFleetBankTelemetryTag = 0xF1EE7A000ULL;

struct FleetOptions {
  /// Route SchedulingService epochs through the hierarchical path. Off by
  /// default: the flat service is bit-for-bit unchanged.
  bool enabled = false;
  /// Flat optimization below this many streams even when enabled (the
  /// hierarchy only pays for itself once the flat BO would be the
  /// bottleneck).
  std::size_t min_streams = 48;
  sched::ShardPlanOptions shard;
  /// Optimization template. init_profiles is the budget of the fleet's
  /// shared outcome bank; each shard re-anchors that bank with
  /// warm_profiles profiles of its own streams. The seed is re-derived
  /// per shard; warm_start must stay null (the fleet fits its own bank).
  /// The preference options must be fan-out safe: either
  /// use_true_preference (PaMO+, const oracle access only) or a
  /// shared_learner with learn_in_loop off (read-only model evaluation).
  PamoOptions pamo = [] {
    PamoOptions o;
    o.use_true_preference = true;
    o.init_profiles = 24;
    o.max_model_points = 96;
    o.init_observations = 3;
    o.mc_samples = 16;
    o.batch_size = 2;
    o.max_iters = 3;
    o.max_pool_feasible = 48;
    o.gp.mle_restarts = 1;
    o.gp.mle_max_evals = 60;
    return o;
  }();
};

/// Per-shard record of one fleet epoch (diagnostics; index == shard id).
struct FleetShardReport {
  std::size_t streams = 0;
  std::size_t servers = 0;
  bool feasible = false;
  std::size_t iterations = 0;
  /// Final model-estimated benefit of the shard's incumbent (0 when the
  /// shard produced no trace).
  double benefit = 0.0;
};

struct FleetReport {
  sched::ShardPlan plan;
  std::vector<FleetShardReport> shards;
};

/// One hierarchical scheduling epoch over the full fleet. Returns a flat
/// PamoResult in global id space: feasible iff every shard converged to a
/// feasible decision, best_config/best_schedule merged through the plan,
/// counters summed (the bank's profiles and fit diagnostics counted once),
/// iterations the per-shard maximum, benefit_trace a single entry holding
/// the mean final shard benefit, health.warm_started false (the bank is
/// fit this epoch). `report`, when non-null, receives the plan and
/// per-shard outcomes.
PamoResult run_fleet_epoch(const eva::Workload& workload,
                           const FleetOptions& options,
                           const pref::PreferenceOracle& oracle,
                           FleetReport* report = nullptr);

}  // namespace pamo::core
