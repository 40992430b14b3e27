#include "core/obs_export.hpp"

#include "common/contracts.hpp"

namespace pamo::core {

namespace {

const char* repair_kind_name(RepairKind kind) {
  switch (kind) {
    case RepairKind::kFallbackSchedule: return "fallback_schedule";
    case RepairKind::kReplaceOrphans: return "replace_orphans";
    case RepairKind::kFullRepack: return "full_repack";
    case RepairKind::kRephase: return "rephase";
    case RepairKind::kKnobStepDown: return "knob_step_down";
    case RepairKind::kExactReplaceOrphans: return "exact_replace_orphans";
  }
  return "?";
}

obs::EpochRecord::SimSummary summarize(const sim::SimReport& sim) {
  obs::EpochRecord::SimSummary s;
  s.total_frames = sim.total_frames;
  s.total_emitted = sim.total_emitted;
  s.total_dropped = sim.total_dropped;
  s.dropped_by_loss = sim.dropped_by_loss;
  s.slo_violations = sim.slo_violations;
  s.unserved_streams = sim.unserved_streams;
  s.mean_latency = sim.mean_latency;
  s.max_jitter = sim.max_jitter;
  s.total_queue_delay = sim.total_queue_delay;
  return s;
}

}  // namespace

obs::EpochRecord export_epoch_record(
    const SchedulingService::EpochReport& report, bool include_obs_state) {
  obs::EpochRecord record;
  record.epoch = report.epoch;
  record.feasible = report.feasible;
  record.fallback = report.fallback;
  record.repaired = report.repaired;

  const EpochHealth& h = report.health;
  record.health.samples_rejected = h.learning.samples_rejected;
  record.health.samples_repaired = h.learning.samples_repaired;
  record.health.outliers_downweighted = h.learning.outliers_downweighted;
  record.health.cholesky_recoveries = h.learning.cholesky_recoveries;
  record.health.iteration_failures = h.learning.iteration_failures;
  record.health.watchdog_fires = h.learning.watchdog_fires;
  record.health.inconsistent_pairs = h.learning.inconsistent_pairs;
  record.health.max_jitter_applied = h.learning.max_jitter_applied;
  record.health.heuristic_fallback = h.learning.heuristic_fallback;
  record.health.optimizer_error = h.optimizer_error;
  record.health.repair_error = h.repair_error;
  record.health.fallback_taken = h.fallback_taken;
  record.health.error_message = h.error_message;
  record.health.warm_started = h.learning.warm_started;

  record.churn.offered = report.churn.offered;
  record.churn.arrived = report.churn.arrived;
  record.churn.departed = report.churn.departed;
  record.churn.admitted = report.churn.admitted;
  record.churn.deferred = report.churn.deferred;
  record.churn.shed = report.churn.shed;
  record.churn.load_factor = report.churn.load_factor;
  record.churn.offered_load = report.churn.offered_load;
  record.churn.admitted_load = report.churn.admitted_load;
  for (const GovernorAction& action : report.governor_actions) {
    record.governor_actions.push_back(
        {static_cast<std::uint64_t>(action.epoch), action.stream,
         governor_decision_name(action.decision), action.detail});
  }

  record.sim = summarize(report.sim);
  record.post_repair_sim = summarize(report.post_repair_sim);
  for (const RepairAction& action : report.repairs) {
    record.repairs.push_back({repair_kind_name(action.kind), action.detail});
  }
  record.benefit_trace = report.benefit_trace;

  if (include_obs_state) {
    record.metrics = obs::MetricsRegistry::global().snapshot();
    record.spans = obs::span_snapshot();
  }
  PAMO_ENSURES(record.governor_actions.size() ==
                       report.governor_actions.size() &&
                   record.repairs.size() == report.repairs.size(),
               "exported record must carry every action in the report");
  return record;
}

}  // namespace pamo::core
