#include "core/fleet.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace pamo::core {

namespace {

/// Sum the robustness counters of one shard into the fleet aggregate.
/// Shards warm-start from the fleet bank, so their own flag is not folded:
/// the fleet fit its bank this epoch.
void fold_health(LearningHealth& fleet, const LearningHealth& shard) {
  fleet.samples_rejected += shard.samples_rejected;
  fleet.samples_repaired += shard.samples_repaired;
  fleet.outliers_downweighted += shard.outliers_downweighted;
  fleet.cholesky_recoveries += shard.cholesky_recoveries;
  fleet.max_jitter_applied =
      std::max(fleet.max_jitter_applied, shard.max_jitter_applied);
  fleet.iteration_failures += shard.iteration_failures;
  fleet.watchdog_fires += shard.watchdog_fires;
  // Every shard reads the one shared learner, so each reports the same
  // count: summing would multiply it by the shard count.
  fleet.inconsistent_pairs =
      std::max(fleet.inconsistent_pairs, shard.inconsistent_pairs);
  fleet.heuristic_fallback |= shard.heuristic_fallback;
}

}  // namespace

PamoResult run_fleet_epoch(const eva::Workload& workload,
                           const FleetOptions& options,
                           const pref::PreferenceOracle& oracle,
                           FleetReport* report) {
  PAMO_SPAN("fleet.run_epoch");
  PAMO_COUNT("fleet.epochs", 1);
  PAMO_CHECK(workload.num_streams() > 0 && workload.num_servers() > 0,
             "fleet epoch over an empty workload");
  // The fan-out runs shards concurrently against shared preference state;
  // only configurations whose oracle/learner access is read-only per shard
  // are admissible. (Each shard gets a private oracle *copy*, so PaMO+'s
  // const benefit calls and a frozen shared learner are both safe.)
  PAMO_CHECK(options.pamo.use_true_preference ||
                 (options.pamo.shared_learner != nullptr &&
                  !options.pamo.learn_in_loop),
             "fleet mode requires fan-out-safe preference options: "
             "use_true_preference, or a shared_learner with learn_in_loop "
             "off");
  PAMO_CHECK(options.pamo.warm_start == nullptr,
             "fleet mode fits its own shared outcome bank every epoch; a "
             "caller-supplied warm_start bank is not supported");
  PAMO_CHECK(options.pamo.scenario_bases == nullptr,
             "fleet mode draws its own scenario bases");

  const sched::ShardPlan plan =
      sched::make_shard_plan(workload, options.shard);
  const std::size_t shards = plan.num_shards();
  PAMO_GAUGE("fleet.shards", shards);

  // Per-shard inputs are materialized serially so the parallel region
  // touches only its own slot: workload copy, pre-derived seed, private
  // oracle copy. Seeds come from the shard *index* via Rng::fork — the
  // same fleet seed always yields the same per-shard streams.
  std::vector<eva::Workload> shard_loads;
  std::vector<std::uint64_t> shard_seeds;
  shard_loads.reserve(shards);
  shard_seeds.reserve(shards);
  const Rng seed_root(options.pamo.seed ^ 0xF1EE7D15ULL);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_loads.push_back(sched::shard_workload(workload, plan, s));
    shard_seeds.push_back(seed_root.fork(s).next_u64());
  }

  // ---- Phase 1, once for the whole fleet. ----
  // The outcome GPs model the two knobs only and pool every stream, so one
  // bank fit over the fleet serves every shard: each copies it and
  // re-anchors it with warm_profiles profiles of its own streams instead
  // of fitting five GPs of its own. The bank is fit serially here and
  // only read during the fan-out. Its telemetry goes through the fleet
  // instance directly.
  eva::TelemetryCorruption* telemetry = options.pamo.telemetry;
  PamoResult fleet;
  OutcomeModels bank(workload.space, PamoScheduler::harden(options.pamo).gp);
  {
    PAMO_SPAN("pamo.phase1_outcome_fit");
    Rng rng(options.pamo.seed);
    const Phase1Profiles profiles = profile_phase1(
        workload, options.pamo.init_profiles, rng, telemetry,
        kFleetBankTelemetryTag);
    bank.fit(profiles.configs, profiles.measurements);
    fleet.health.samples_rejected = profiles.dropped;
    add_model_health(fleet.health, bank.diagnostics());
    fleet.profiles_taken = options.pamo.init_profiles;
  }

  // One set of scenario normals per BO round, shared by every shard: each
  // shard colours base i with its own posterior in iteration i, so it
  // still sees fresh scenarios every iteration, and the fleet draws
  // max_iters sets instead of every shard drawing its own.
  Rng scenario_rng(options.pamo.seed ^ kFleetScenarioSeedTag);
  std::vector<std::vector<la::Matrix>> scenario_bases;
  scenario_bases.reserve(options.pamo.max_iters);
  for (std::size_t i = 0; i < options.pamo.max_iters; ++i) {
    scenario_bases.push_back(draw_scenario_normals(
        options.pamo.mc_samples, bank.grid().size(), scenario_rng));
  }

  // Shards corrupt telemetry concurrently, each through a private view
  // keyed by fleet stream id; the views fold back in shard-index order.
  std::vector<eva::TelemetryCorruption> shard_telemetry;
  if (telemetry != nullptr) {
    shard_telemetry.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shard_telemetry.push_back(telemetry->shard_view(plan.stream_ids[s]));
    }
  }

  std::vector<PamoResult> results(shards);
  parallel_for(shards, [&](std::size_t s) {
    PAMO_SPAN("fleet.shard_epoch");
    PamoOptions shard_options = options.pamo;
    shard_options.seed = shard_seeds[s];
    shard_options.warm_start = &bank;
    shard_options.scenario_bases = &scenario_bases;
    if (telemetry != nullptr) shard_options.telemetry = &shard_telemetry[s];
    pref::PreferenceOracle shard_oracle = oracle;
    PamoScheduler scheduler(shard_loads[s], shard_options);
    results[s] = scheduler.run(shard_oracle);
  });

  // ---- Merge in shard-index order (deterministic). ----
  fleet.feasible = shards > 0;
  fleet.best_config.assign(workload.num_streams(), eva::StreamConfig{});
  std::vector<sched::ScheduleResult> schedules;
  schedules.reserve(shards);
  double benefit_sum = 0.0;
  std::size_t benefit_count = 0;
  if (report != nullptr) {
    report->plan = plan;
    report->shards.assign(shards, FleetShardReport{});
  }
  for (std::size_t s = 0; s < shards; ++s) {
    const PamoResult& shard = results[s];
    fleet.feasible &= shard.feasible;
    fleet.iterations = std::max(fleet.iterations, shard.iterations);
    fleet.oracle_queries += shard.oracle_queries;
    fleet.profiles_taken += shard.profiles_taken;
    fold_health(fleet.health, shard.health);
    if (telemetry != nullptr) telemetry->merge_shard(shard_telemetry[s]);
    schedules.push_back(shard.best_schedule);
    const double benefit =
        shard.benefit_trace.empty() ? 0.0 : shard.benefit_trace.back();
    if (!shard.benefit_trace.empty()) {
      benefit_sum += benefit;
      ++benefit_count;
    }
    if (shard.feasible) {
      const std::vector<std::size_t>& ids = plan.stream_ids[s];
      PAMO_CHECK(shard.best_config.size() == ids.size(),
                 "shard decision does not cover its shard's streams");
      for (std::size_t p = 0; p < ids.size(); ++p) {
        fleet.best_config[ids[p]] = shard.best_config[p];
      }
    }
    if (report != nullptr) {
      FleetShardReport& row = (*report).shards[s];
      row.streams = plan.stream_ids[s].size();
      row.servers = plan.server_ids[s].size();
      row.feasible = shard.feasible;
      row.iterations = shard.iterations;
      row.benefit = benefit;
    }
    PAMO_HISTOGRAM("fleet.shard_benefit", benefit);
    PAMO_HISTOGRAM("fleet.shard_profiles", shard.profiles_taken);
  }
  if (fleet.feasible) {
    fleet.best_schedule = sched::merge_shard_schedules(
        plan, schedules, workload.num_streams(), workload.num_servers());
    fleet.feasible = fleet.best_schedule.feasible;
  }
  if (benefit_count > 0) {
    fleet.benefit_trace.push_back(benefit_sum /
                                  static_cast<double>(benefit_count));
  }
  PAMO_COUNT("fleet.infeasible_epochs", fleet.feasible ? 0 : 1);
  PAMO_ENSURES(!fleet.feasible ||
                   (fleet.best_config.size() == workload.num_streams() &&
                    fleet.best_schedule.assignment.size() ==
                        fleet.best_schedule.streams.size()),
               "a feasible fleet epoch carries a complete flat decision");
  return fleet;
}

}  // namespace pamo::core
