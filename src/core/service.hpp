// Long-running scheduling service — the paper's Figure 1 operating loop.
//
// The EVA scheduler does not run once: it "periodically collects
// performance and resource information ... and adjusts configuration and
// scheduling decisions" (§2.1). SchedulingService wraps that loop:
//
//   * the *preference model* persists across epochs (the operator's
//     pricing does not change when the video content does), so later
//     epochs reuse the learned model and ask at most a refresh query or
//     two instead of re-interviewing the decision-maker;
//   * each epoch re-optimizes against the current workload (callers feed
//     content drift / churn via set_workload) with a trimmed BO budget;
//   * every decision is validated in the discrete-event simulator and the
//     report carries the measured latency/jitter;
//   * a resilience loop reads the fault signatures out of that validation
//     (dead servers, collapsed uplinks, stragglers, frame loss) and
//     repairs the decision *without a full BO re-run*: orphaned streams
//     are re-placed onto surviving servers with the zero-jitter heuristic,
//     knobs are stepped down until the latency SLO holds again, and an
//     infeasible epoch falls back to the last-known-good schedule instead
//     of silently returning nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/governor.hpp"
#include "core/pamo.hpp"
#include "eva/churn.hpp"
#include "eva/telemetry.hpp"
#include "obs/json.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace pamo::core {

/// Structured health record of one service epoch. Invariant: run_epoch
/// never lets a pamo::Error from the math stack escape — a failed
/// optimization or repair is recorded here and the epoch degrades (last
/// known good, unrepaired report) instead of throwing.
struct EpochHealth {
  /// Learning-stack counters (sanitized samples, robust-fit activity,
  /// watchdog state) of this epoch's PamoScheduler run.
  LearningHealth learning;
  /// The epoch's optimization threw and was absorbed (see error_message).
  bool optimizer_error = false;
  /// The resilience repair threw and was absorbed (see error_message).
  bool repair_error = false;
  /// Message of the last absorbed error, empty when none.
  std::string error_message;
  /// True when the last-known-good fallback produced this epoch's decision.
  bool fallback_taken = false;
};

/// Optional exact (branch-and-bound) orphan re-placement inside the
/// repair path. Off by default, and a strict no-op when off: the repair
/// decisions are then bit-for-bit identical to the greedy-only service.
/// When on, small orphan sets are re-placed optimally by
/// sched::reschedule_bnb_pinned; a proven-infeasible answer short-circuits
/// to the full re-pack, and a budget breach (kUnknown/never-infeasible)
/// falls back to the greedy reschedule_pinned exactly as before.
struct ExactRepairOptions {
  bool enabled = false;
  /// Use the exact path only when at most this many sub-streams were
  /// orphaned — the search cost is exponential in the orphan count.
  std::size_t max_orphans = 8;
  /// Deterministic node budget handed to the branch-and-bound engine.
  std::size_t max_nodes = 50'000;
};

/// Graceful-degradation policy of the service's resilience loop.
struct ResilienceOptions {
  /// Master switch; when off, epochs behave exactly like the fault-naive
  /// service (no repair attempts, no fallback simulation changes).
  bool enabled = true;
  /// Per-stream end-to-end latency SLO (seconds) enforced by the
  /// validation simulations; 0 disables latency-driven degradation.
  double slo_latency = 0.0;
  /// Maximum (resolution, fps) step-down rounds while degrading.
  std::size_t max_degrade_rounds = 4;
  /// A server still slowed by at least this factor at the epoch boundary
  /// is routed around like a dead one instead of being padded for.
  double straggler_exclusion = 4.0;
  /// Exact orphan re-placement (default-off; see ExactRepairOptions).
  ExactRepairOptions exact_repair;
};

/// Continual-learning policy across epochs (requires
/// retain_outcome_models for the warm path to have a bank to reuse).
struct ContinualOptions {
  /// Warm-start steady-state epochs from the previous epoch's retained
  /// outcome models instead of re-profiling and re-fitting from scratch.
  /// Because the bank pools all streams per metric, surviving streams
  /// reuse their posterior evidence and churned-in newcomers inherit the
  /// pooled prior mean automatically. Off by default: every epoch is then
  /// bit-for-bit identical to the cold-start service.
  bool warm_start = false;
  /// Fresh profiles folded in per warm-started epoch (re-anchoring).
  std::size_t warm_profiles = 12;
  /// Cap on the shared preference learner's candidate pool, which the
  /// in-loop comparisons grow every epoch. When the pool exceeds the cap
  /// after an epoch, the oldest BO-loop extensions are dropped (the
  /// operator-interview anchor pool is always kept) and the model refit.
  /// 0 = unbounded (the pre-churn behaviour, bit-for-bit).
  std::size_t pref_pool_cap = 0;
};

struct ServiceOptions {
  /// Epoch-0 optimization (full preference interview + BO).
  PamoOptions initial;
  /// Steady-state epochs (shared preference model, smaller BO budget).
  PamoOptions steady = [] {
    PamoOptions o;
    o.init_profiles = 32;
    o.init_observations = 4;
    o.max_iters = 4;
    o.batch_size = 2;
    return o;
  }();
  /// Size of the outcome-vector pool the persistent preference model is
  /// anchored on.
  std::size_t pref_pool_size = 28;
  /// Comparison queries asked when the service first starts.
  std::size_t initial_comparisons = 18;
  /// Validation-simulation parameters shared by every epoch.
  sim::SimOptions sim;
  ResilienceOptions resilience;
  ContinualOptions continual;
  /// Admission/degradation governor over the offered stream set; disabled
  /// by default (every offered stream is scheduled, no actions logged).
  GovernorOptions governor;
  /// Hierarchical (sharded) optimization for fleet-scale workloads.
  /// Disabled by default: every epoch then runs the flat PamoScheduler,
  /// bit-for-bit the pre-fleet service. When enabled, epochs whose active
  /// workload has at least fleet.min_streams streams are partitioned by
  /// the global allocator and optimized per shard (see core/fleet.hpp);
  /// smaller epochs still run flat. Fleet epochs use fleet.pamo (its seed
  /// re-derived per epoch and shard) instead of initial/steady, and fit
  /// one shared outcome bank per epoch that every shard warm-starts from.
  /// They skip outcome-model retention/warm start across epochs: keeping
  /// the fleet bank needs a bounded raw-row store first.
  FleetOptions fleet;
  /// Keep a copy of the most recent epoch's fitted outcome models so they
  /// ride along in checkpoints (snapshot()). Costs one model-bank copy per
  /// feasible epoch and never touches any RNG stream.
  bool retain_outcome_models = true;
  std::uint64_t seed = 1;
};

/// What the resilience loop did to an epoch's decision, and why.
enum class RepairKind {
  kFallbackSchedule,  // infeasible epoch: previous decision carried forward
  kReplaceOrphans,    // dead server: orphans re-packed, survivors pinned
  kFullRepack,        // Algorithm 1 re-run on the surviving servers
  kRephase,           // schedule re-solved on the degraded network view
  kKnobStepDown,      // (resolution, fps) degraded to restore the SLO
  // Appended last: RepairKind round-trips through daemon snapshots as a
  // raw integer, so existing values must keep their encoding.
  kExactReplaceOrphans,  // dead server: orphans re-placed optimally (B&B)
};

struct RepairAction {
  RepairKind kind;
  std::string detail;
};

class SchedulingService {
 public:
  SchedulingService(eva::Workload workload, ServiceOptions options);

  /// Replace the environment (content drift, stream churn, new uplinks).
  void set_workload(eva::Workload workload);

  /// Install the fault schedule the validation simulator will honour from
  /// the next epoch on (the test/bench stand-in for real-world failures).
  void set_fault_plan(sim::FaultPlan plan);
  void clear_fault_plan();

  /// Install a churn plan: from the next epoch on, the scheduled workload
  /// is the plan's offered view of the base workload (arrivals join,
  /// departures leave, content drifts, diurnal load waves scale). The
  /// base workload and its snapshot fingerprint never change — churn is
  /// an overlay, not a mutation. An empty plan (the default) leaves every
  /// epoch bit-for-bit identical to a churn-free service.
  void set_churn_plan(eva::ChurnPlan plan);
  void clear_churn_plan();
  [[nodiscard]] const eva::ChurnPlan& churn_plan() const { return churn_; }
  [[nodiscard]] const AdmissionGovernor& governor() const {
    return governor_;
  }

  /// Install a telemetry-corruption model applied to every profiler
  /// measurement from the next epoch on (the learning-side analogue of
  /// set_fault_plan). The model persists across epochs, so its stuck-at
  /// memory and counters are continuous; a disabled model (all rates 0)
  /// leaves every epoch bit-for-bit identical to a clean service.
  void set_telemetry_corruption(eva::TelemetryCorruptionOptions options);
  void clear_telemetry_corruption();
  [[nodiscard]] const eva::TelemetryCorruption* telemetry_corruption() const {
    return telemetry_ ? &*telemetry_ : nullptr;
  }

  /// Stream-churn and admission accounting of one epoch. Invariant
  /// (checked by `pamo_trace --check`): admitted + deferred + shed ==
  /// offered.
  struct ChurnSummary {
    std::size_t offered = 0;    // streams the plan offered this epoch
    std::size_t arrived = 0;    // newly arrived at this epoch
    std::size_t departed = 0;   // departed at this epoch
    std::size_t admitted = 0;   // scheduled after governor admission
    std::size_t deferred = 0;   // waiting in the governor's retry queue
    std::size_t shed = 0;       // dropped by the governor
    double load_factor = 1.0;   // diurnal wave multiplier
    double offered_load = 0.0;  // knob-floor load of the offered set
    double admitted_load = 0.0;
  };

  struct EpochReport {
    std::size_t epoch = 0;
    bool feasible = false;
    /// True when the epoch's optimization failed and the last-known-good
    /// decision was carried forward instead.
    bool fallback = false;
    eva::JointConfig config;
    sched::ScheduleResult schedule;
    sim::SimReport sim;              // measured behaviour of the decision
    /// Model-estimated benefit of the incumbent after each BO iteration of
    /// this epoch's optimization (empty when the optimizer threw). Part of
    /// the service's reproducibility surface: same seed, same trajectory.
    std::vector<double> benefit_trace;
    std::size_t oracle_queries = 0;  // asked during this epoch
    // -- Resilience loop output. --
    bool repaired = false;
    eva::JointConfig repaired_config;        // valid when repaired
    sched::ScheduleResult repaired_schedule;
    /// Repaired decision re-validated under the residual fault state
    /// (dead servers stay dead, collapse/slowdown/loss persist).
    sim::SimReport post_repair_sim;
    std::vector<RepairAction> repairs;  // what degraded, and why
    /// Robustness record: what the learning stack absorbed this epoch.
    EpochHealth health;
    // -- Stream churn & admission (all-default when churn and the
    // -- governor are off). --
    ChurnSummary churn;
    /// Admission decisions the governor made this epoch (empty when the
    /// governor is disabled).
    std::vector<GovernorAction> governor_actions;
  };

  /// Run one scheduling epoch against the decision-maker.
  EpochReport run_epoch(pref::PreferenceOracle& oracle);

  [[nodiscard]] std::size_t epochs_run() const { return epoch_; }
  [[nodiscard]] const pref::PreferenceLearner* learner() const {
    return learner_ ? &*learner_ : nullptr;
  }
  [[nodiscard]] const eva::Workload& workload() const { return workload_; }
  [[nodiscard]] bool has_last_good() const { return last_good_.has_value(); }
  /// Most recent epoch's fitted outcome models (retain_outcome_models),
  /// or nullptr before the first feasible epoch / when retention is off.
  [[nodiscard]] const OutcomeModels* retained_models() const {
    return retained_models_ ? &*retained_models_ : nullptr;
  }

  /// Serialize everything a restart needs to replay the next epoch
  /// bit-identically: the epoch cursor, the preference learner (pool,
  /// comparisons, RNG, posterior), telemetry-corruption dynamic state,
  /// the fault plan, the last-known-good decision, and the retained
  /// outcome models — as a `pamo.service_state.v1` JSON document guarded
  /// by a workload fingerprint.
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild from snapshot(). The service must have been constructed with
  /// the same workload and ServiceOptions as the snapshotted one (the
  /// workload fingerprint is verified); per-epoch seeds re-derive from
  /// (options.seed, epoch), so the restored service's future epochs are
  /// bit-identical to the uninterrupted instance's.
  void restore(const obs::json::Value& state);

 private:
  struct LastGood {
    eva::JointConfig config;
    sched::ScheduleResult schedule;
  };

  void ensure_learner(pref::PreferenceOracle& oracle);
  /// Detect fault signatures in report.sim and repair the decision with
  /// the zero-jitter heuristic + knob degradation (never a BO re-run).
  void attempt_repair(EpochReport& report);
  /// Step one configuration down one knob; returns false at the floor.
  bool step_down(eva::StreamConfig& config, bool resolution_first) const;
  /// The workload this epoch actually schedules: the base workload, or —
  /// under churn / an active governor — the materialized offered/admitted
  /// view of it. Valid between the top of run_epoch and the next epoch.
  [[nodiscard]] const eva::Workload& active_workload() const {
    return epoch_workload_ ? *epoch_workload_ : workload_;
  }

  eva::Workload workload_;
  ServiceOptions options_;
  std::optional<pref::PreferenceLearner> learner_;
  std::optional<sim::FaultPlan> fault_plan_;
  std::optional<eva::TelemetryCorruption> telemetry_;
  std::optional<LastGood> last_good_;
  std::optional<OutcomeModels> retained_models_;
  eva::ChurnPlan churn_;            // empty plan = no churn
  AdmissionGovernor governor_;      // default options = admit everything
  /// Materialized per-epoch workload under churn/governor (unset when
  /// both are off, so the clean path never copies the workload).
  // Rebuilt from scratch at the top of every epoch; snapshotting it
  // would only duplicate the (unserialized) workload environment.
  // pamo-analyze: allow(snapshot-coverage)
  std::optional<eva::Workload> epoch_workload_;
  std::size_t epoch_ = 0;
};

}  // namespace pamo::core
