// PaMO — the preference-aware Bayesian-optimization scheduler (§4, Alg. 2).
//
// Phase 1  Outcome-function fitting: profile per-stream metrics at random
//          knob configurations and fit the five outcome GPs.
// Phase 2  Preference modeling: build a pool of (model-predicted,
//          normalized) outcome vectors, then run EUBO-guided pairwise
//          comparison rounds against the decision-maker to train the
//          preference GP. (PaMO+ skips this and uses the true benefit
//          function — the paper's skyline variant.)
// Phase 3  BO loop: each iteration samples the outcome GPs jointly over
//          the knob grid, scores a candidate pool (quasi-random coverage +
//          incumbent mutations, each candidate scheduled by Algorithm 1 and
//          dropped if infeasible) with a Monte-Carlo batch acquisition
//          (qNEI by default), observes the best b candidates by actually
//          profiling them, updates both models, and stops when the best
//          benefit estimate moves less than δ (or at MaxIterNum).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bo/acquisition.hpp"
#include "bo/candidates.hpp"
#include "bo/watchdog.hpp"
#include "core/outcome_models.hpp"
#include "eva/outcomes.hpp"
#include "eva/telemetry.hpp"
#include "eva/workload.hpp"
#include "pref/learner.hpp"
#include "pref/oracle.hpp"
#include "sched/scheduler.hpp"

namespace pamo::core {

/// Robustness counters of one learning epoch (PamoScheduler::run). All
/// fields stay zero on a clean, untampered run with the watchdog off.
struct LearningHealth {
  /// Telemetry reports dropped outright plus GP training rows rejected as
  /// non-finite (per metric: a NaN in one field rejects one metric's row).
  std::size_t samples_rejected = 0;
  /// Phase-3 measurements whose non-finite fields were replaced by the
  /// outcome models' posterior means (used for utility, not fed back).
  std::size_t samples_repaired = 0;
  /// Training points whose noise the robust GP fit inflated.
  std::size_t outliers_downweighted = 0;
  /// Cholesky failures recovered by widening the jitter cap.
  std::size_t cholesky_recoveries = 0;
  /// Largest diagonal jitter any GP factorization needed.
  double max_jitter_applied = 0.0;
  /// BO iterations that failed and were absorbed by the watchdog budget.
  std::size_t iteration_failures = 0;
  /// 1 when the epoch watchdog stopped the BO loop early.
  std::size_t watchdog_fires = 0;
  /// Oracle comparisons flagged as contradictory and down-weighted.
  std::size_t inconsistent_pairs = 0;
  /// True when the BO loop produced no observation and the recommendation
  /// fell back to the zero-jitter heuristic on model point estimates.
  bool heuristic_fallback = false;
  /// True when Phase 1 reused a retained outcome-model bank.
  bool warm_started = false;
  /// Drift-detector (CUSUM) fires across the outcome GPs this epoch.
  std::size_t drift_fires = 0;
  /// Training rows down-weighted by drift forgetting this epoch.
  std::size_t drift_downweighted = 0;
};

/// Add the outcome-model robustness counters `now` gathered since
/// `base` (the warm-start bank's counters; empty for a bank fit this
/// epoch) to `health`: rejected rows, outliers, Cholesky recoveries and
/// drift as deltas, jitter as a maximum.
void add_model_health(LearningHealth& health, const gp::GpFitDiagnostics& now,
                      const gp::GpFitDiagnostics& base = {});

struct PamoOptions {
  // Phase 1 (outcome models).
  std::size_t init_profiles = 64;        // U: initial profiling samples
  /// Cap on the raw observations each outcome GP stores. It bounds memory
  /// and checkpoint size, not compute: the GPs solve on the distinct knob
  /// inputs (at most the grid), whatever the row count.
  std::size_t max_model_points = 220;
  /// Warm start (continual learning): when set and fit, Phase 1 copies
  /// this retained outcome-model bank instead of profiling init_profiles
  /// fresh samples and re-running the MLE from scratch; only
  /// `warm_profiles` fresh profiles are taken and folded in through the
  /// incremental update path. The copied bank keeps its own GpOptions —
  /// including any drift-detector (CUSUM) state, so regime change across
  /// epochs triggers selective forgetting instead of a full refit.
  /// Because the bank pools all streams per metric, surviving streams
  /// reuse their posterior evidence and newcomers inherit the pooled
  /// prior mean automatically. The fleet path hands every shard the bank
  /// it fit over the whole fleet this way (core/fleet.hpp). Externally
  /// owned and only read; null = cold start.
  const OutcomeModels* warm_start = nullptr;
  /// Fresh profiles taken when warm-starting (cheap re-anchoring).
  std::size_t warm_profiles = 12;
  gp::GpOptions gp = [] {
    gp::GpOptions g;
    g.mle_restarts = 2;
    g.mle_max_evals = 120;
    return g;
  }();

  // Phase 2 (preference model).
  std::size_t num_comparisons = 18;      // V: pre-loop comparison queries
  std::size_t pref_pool_size = 32;       // candidate outcome vectors
  pref::LearnerOptions pref_learner;
  /// PaMO+: bypass preference learning, use the true benefit function.
  bool use_true_preference = false;
  /// Ask one more comparison per BO iteration (line 19 of Algorithm 2).
  bool learn_in_loop = true;
  /// When set, skip Phase 2 and use (and extend) this externally owned
  /// preference model instead of training a fresh one. The system's
  /// pricing preference belongs to the *operator*, not to one scheduling
  /// epoch, so long-running deployments (core::SchedulingService) share
  /// one learner across re-optimizations.
  pref::PreferenceLearner* shared_learner = nullptr;

  // Phase 3 (BO loop).
  std::size_t init_observations = 6;
  std::size_t mc_samples = 40;           // S: MC scenarios per iteration
  std::size_t batch_size = 4;            // b: qNEI batch
  std::size_t max_iters = 10;            // MaxIterNum
  std::size_t max_pool_feasible = 144;   // feasible candidates kept per iter
  double delta = 0.02;                   // convergence threshold δ
  bo::AcquisitionOptions acquisition;
  bo::PoolOptions pool;

  /// Optional telemetry corruption injected into every profiler
  /// measurement (externally owned; survives across epochs so stuck-at
  /// memory and counters are continuous). When the model is enabled, the
  /// scheduler hardens itself automatically: the outcome GPs reject
  /// non-finite rows and down-weight outliers, and the preference model
  /// down-weights contradictory comparisons. Null or disabled leaves
  /// every code path bit-for-bit identical to the unhardened scheduler.
  eva::TelemetryCorruption* telemetry = nullptr;

  /// Epoch watchdog over the whole run (profiling + BO loop). Disabled by
  /// default; when enabled, failed BO iterations burn budget instead of
  /// throwing, and a breach returns best-so-far.
  bo::WatchdogOptions watchdog;

  std::uint64_t seed = 42;
};

struct PamoResult {
  bool feasible = false;
  eva::JointConfig best_config;
  sched::ScheduleResult best_schedule;
  std::size_t iterations = 0;
  std::size_t oracle_queries = 0;
  std::size_t profiles_taken = 0;
  /// Model-estimated benefit of the incumbent after each BO iteration.
  std::vector<double> benefit_trace;
  /// Robustness counters of this epoch (all-zero on a clean run).
  LearningHealth health;
};

/// Phase-1 profiles (Alg. 2 line 2), ready for OutcomeModels::fit/update.
struct Phase1Profiles {
  std::vector<eva::StreamConfig> configs;
  std::vector<eva::StreamMeasurement> measurements;
  /// Reports the telemetry model dropped before they reached the models.
  std::size_t dropped = 0;
};

/// Profile `count` random knob configurations, cycling over the workload's
/// streams: profile u measures stream u mod n with rng.fork(0xA000 + u).
/// With `telemetry` enabled every report passes through it first (tag
/// `telemetry_tag + u`); a dropped report is counted and skipped, while
/// non-finite fields survive on purpose: the hardened outcome GPs reject
/// those rows per metric and count them. The cold fit, the warm
/// re-anchoring and the fleet's shared bank all profile through here.
Phase1Profiles profile_phase1(const eva::Workload& workload, std::size_t count,
                              Rng& rng, eva::TelemetryCorruption* telemetry,
                              std::uint64_t telemetry_tag);

class PamoScheduler {
 public:
  PamoScheduler(const eva::Workload& workload, PamoOptions options);

  /// Run all three phases against the decision-maker oracle.
  PamoResult run(pref::PreferenceOracle& oracle);

  [[nodiscard]] const OutcomeModels& outcome_models() const {
    return models_;
  }

  /// Auto-enable the robust GP / preference options when a telemetry
  /// corruption model is attached and enabled (no-op otherwise, keeping
  /// the clean path bit-for-bit unchanged). Public because anything that
  /// reconstructs a model bank the scheduler fit (e.g. the service's
  /// snapshot restore) must reproduce the same effective GpOptions.
  static PamoOptions harden(PamoOptions options);

 private:
  struct Observation {
    eva::JointConfig config;
    sched::ScheduleResult schedule;
    std::vector<double> unit;          // encoded decision vector
    eva::OutcomeVector raw{};          // aggregated noisy observation
    eva::OutcomeVector normalized{};   // ŷ
  };

  /// Draw a joint configuration whose Algorithm 1 schedule is feasible,
  /// biasing knobs downward on failures.
  std::optional<std::pair<eva::JointConfig, sched::ScheduleResult>>
  random_feasible(Rng& rng) const;

  /// Profile a configuration for real: noisy per-stream measurements plus
  /// jitter-free latency through the Algorithm 1 schedule.
  Observation observe(const eva::JointConfig& config,
                      sched::ScheduleResult schedule, Rng& rng);

  /// Model-predicted outcome vector of a scheduled candidate under one MC
  /// scenario (row `sample` of the grid tables), given each stream's
  /// knob-grid row.
  eva::OutcomeVector outcomes_from_rows(
      const std::vector<la::Matrix>& tables, std::size_t sample,
      const std::vector<std::size_t>& grid_rows,
      const eva::JointConfig& config,
      const sched::ScheduleResult& schedule) const;

  /// Utility of a normalized outcome vector under the current preference
  /// belief (learned model for PaMO, true benefit for PaMO+).
  double utility(const eva::OutcomeVector& normalized,
                 const pref::PreferenceOracle& oracle) const;

  /// A synthetic measurement from the outcome models' posterior means
  /// (the stand-in for a lost or unrepairable telemetry report).
  [[nodiscard]] eva::StreamMeasurement model_mean_measurement(
      const eva::StreamConfig& config) const;

  /// Degraded-mode recommendation when the BO loop produced no feasible
  /// observation: score random feasible candidates on the models' clean
  /// point estimates (zero-jitter schedules, no MC sampling) and return
  /// the best. Fills `result` and sets health.heuristic_fallback.
  void heuristic_fallback(PamoResult& result,
                          const pref::PreferenceOracle& oracle, Rng& rng);

  const eva::Workload& workload_;
  PamoOptions options_;
  eva::OutcomeNormalizer normalizer_;
  OutcomeModels models_;
  std::optional<pref::PreferenceLearner> learner_;  // owned (default mode)
  pref::PreferenceLearner* active_learner_ = nullptr;
  std::size_t model_points_ = 0;
  std::size_t profiles_taken_ = 0;
  LearningHealth health_;
};

}  // namespace pamo::core
