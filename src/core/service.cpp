#include "core/service.hpp"

#include <algorithm>
#include <sstream>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "core/pareto.hpp"
#include "eva/faults.hpp"
#include "obs/obs.hpp"
#include "sched/bnb.hpp"

namespace pamo::core {

SchedulingService::SchedulingService(eva::Workload workload,
                                     ServiceOptions options)
    : workload_(std::move(workload)),
      options_(std::move(options)),
      governor_(options_.governor) {
  PAMO_CHECK(workload_.num_streams() > 0 && workload_.num_servers() > 0,
             "service requires a non-empty workload");
}

void SchedulingService::set_workload(eva::Workload workload) {
  PAMO_CHECK(workload.num_streams() > 0 && workload.num_servers() > 0,
             "service requires a non-empty workload");
  workload_ = std::move(workload);
}

void SchedulingService::set_fault_plan(sim::FaultPlan plan) {
  fault_plan_ = std::move(plan);
}

void SchedulingService::set_churn_plan(eva::ChurnPlan plan) {
  churn_ = std::move(plan);
}

void SchedulingService::set_telemetry_corruption(
    eva::TelemetryCorruptionOptions options) {
  telemetry_.emplace(options);
}

void SchedulingService::ensure_learner(pref::PreferenceOracle& oracle) {
  if (learner_.has_value()) return;
  // Anchor the persistent preference model on normalized outcomes of
  // feasible configurations — the operator compares *presentable*
  // outcomes, so ground-truth samples of the initial workload are the
  // natural pool. Later epochs extend it with newly observed outcomes.
  const auto samples = sample_outcome_space(
      workload_, options_.pref_pool_size, options_.seed + 0xB00);
  PAMO_CHECK(samples.size() >= 2,
             "could not anchor the preference model: the workload admits "
             "almost no feasible configurations");
  std::vector<std::vector<double>> pool;
  pool.reserve(samples.size());
  for (const auto& s : samples) {
    pool.emplace_back(s.normalized.begin(), s.normalized.end());
  }
  learner_.emplace(std::move(pool), options_.initial.pref_learner,
                   options_.seed + 0xB01);
  learner_->run(oracle, options_.initial_comparisons);
}

bool SchedulingService::step_down(eva::StreamConfig& config,
                                  bool resolution_first) const {
  auto lower = [](const std::vector<std::uint32_t>& knobs,
                  std::uint32_t value) -> std::uint32_t {
    for (std::size_t k = knobs.size(); k-- > 1;) {
      if (knobs[k] == value) return knobs[k - 1];
    }
    return value;  // already at (or below) the smallest knob
  };
  const auto& space = workload_.space;
  const std::uint32_t res = lower(space.resolutions(), config.resolution);
  const std::uint32_t fps = lower(space.fps_knobs(), config.fps);
  if (resolution_first && res != config.resolution) {
    config.resolution = res;
    return true;
  }
  if (fps != config.fps) {
    config.fps = fps;
    return true;
  }
  if (res != config.resolution) {
    config.resolution = res;
    return true;
  }
  return false;
}

void SchedulingService::attempt_repair(EpochReport& report) {
  PAMO_SPAN("service.attempt_repair");
  PAMO_COUNT("service.repair_attempts", 1);
  const sim::SimReport& sim0 = report.sim;
  // Repair the decision against the workload the epoch actually scheduled
  // (the churn/governor view when one is active, the base otherwise).
  const eva::Workload& scheduled = active_workload();
  const std::size_t num_servers = scheduled.num_servers();
  if (sim0.server_up_at_end.size() != num_servers) return;
  const ResilienceOptions& policy = options_.resilience;

  // ---- Detect fault signatures from the epoch's measurements. ----
  std::vector<bool> usable(num_servers, true);
  std::vector<double> factors(num_servers, 1.0);
  double headroom = 1.0;
  bool any_dead = false;
  bool any_usable = false;
  bool degraded_net = false;
  for (std::size_t s = 0; s < num_servers; ++s) {
    if (!sim0.server_up_at_end[s] ||
        sim0.slowdown_at_end[s] >= policy.straggler_exclusion) {
      usable[s] = false;
      any_dead = true;
      continue;
    }
    any_usable = true;
    factors[s] = std::clamp(sim0.uplink_factor_at_end[s], 1e-6, 1.0);
    if (factors[s] < 1.0) degraded_net = true;
    headroom = std::max(headroom, sim0.slowdown_at_end[s]);
  }
  if (!any_usable) {
    // Every server is dead or excluded: nothing to re-pack onto. Leave the
    // epoch unrepaired (report.repaired stays false) so callers escalate.
    return;
  }
  bool orphaned = false;
  if (any_dead) {
    for (std::size_t server : report.schedule.assignment) {
      if (server < num_servers && !usable[server]) {
        orphaned = true;
        break;
      }
    }
  }
  const bool slo_breached =
      sim0.slo_violations > 0 || sim0.unserved_streams > 0;
  // headroom stays exactly 1.0 unless a slowdown observable moved it.
  if (!orphaned && !degraded_net && headroom == 1.0 &&  // pamo-analyze: allow(float-eq)
      !slo_breached) {
    return;  // healthy epoch — nothing to repair
  }

  auto log = [&report](RepairKind kind, std::string detail) {
    report.repairs.push_back({kind, std::move(detail)});
  };

  // ---- The environment as it will look going forward: collapse folded
  // ---- into the uplinks, dead servers dead from t = 0, stragglers still
  // ---- slow, measured frame loss persisting.
  const eva::Workload view = eva::scale_uplinks(scheduled, factors);
  sim::FaultPlan residual;
  for (std::size_t s = 0; s < num_servers; ++s) {
    if (!usable[s]) residual.kill_server(s, 0.0);
    if (usable[s] && sim0.slowdown_at_end[s] > 1.0) {
      residual.slow_server(s, 0.0, sim0.slowdown_at_end[s]);
    }
  }
  if (sim0.dropped_by_loss > 0 && sim0.total_emitted > 0) {
    residual.drop_frames(static_cast<double>(sim0.dropped_by_loss) /
                             static_cast<double>(sim0.total_emitted),
                         options_.seed + 0xFA11 + epoch_);
  }
  sim::SimOptions validate = options_.sim;
  validate.faults = &residual;
  if (policy.slo_latency > 0.0) validate.slo_latency = policy.slo_latency;

  // ---- Step 1: repair placement with the zero-jitter heuristic (no BO
  // ---- re-run). Prefer the pinned fast path: survivors stay put.
  eva::JointConfig config = report.config;
  sched::ScheduleResult candidate;
  if (orphaned) {
    bool placement_decided = false;
    const ExactRepairOptions& exact = policy.exact_repair;
    if (exact.enabled) {
      std::size_t orphans = 0;
      for (std::size_t server : report.schedule.assignment) {
        if (server >= num_servers || !usable[server]) ++orphans;
      }
      if (orphans <= exact.max_orphans) {
        sched::BnbOptions bnb;
        bnb.max_nodes = exact.max_nodes;
        const sched::BnbResult optimal = sched::reschedule_bnb_pinned(
            view, config, report.schedule, usable, headroom, bnb);
        if (optimal.status == sched::BnbStatus::kOptimal ||
            optimal.status == sched::BnbStatus::kFeasibleBudget) {
          candidate = optimal.schedule;
          placement_decided = true;
          std::ostringstream detail;
          detail << "re-placed " << orphans
                 << " orphan(s) by branch-and-bound ("
                 << sched::bnb_status_name(optimal.status) << ", "
                 << optimal.nodes_expanded << " nodes)";
          log(RepairKind::kExactReplaceOrphans, detail.str());
        } else if (optimal.status == sched::BnbStatus::kInfeasible) {
          // Proven: no pinned repair exists at all, so skip the greedy
          // pinned attempt (it cannot succeed) and re-pack from scratch.
          candidate = sched::schedule_zero_jitter_masked(view, config, usable,
                                                         headroom);
          placement_decided = true;
          if (candidate.feasible) {
            log(RepairKind::kFullRepack,
                "pinned repair proven infeasible (branch-and-bound); "
                "Algorithm 1 re-run on survivors");
          }
        }
        // kUnknown: the node budget ran out before an answer. That proves
        // nothing, so fall through to the greedy pinned path unchanged.
      }
    }
    if (!placement_decided) {
      candidate =
          sched::reschedule_pinned(view, config, report.schedule, usable,
                                   headroom);
      if (candidate.feasible) {
        std::ostringstream detail;
        detail << "re-placed orphans of dead server(s) onto survivors "
                  "(pinned fast path)";
        log(RepairKind::kReplaceOrphans, detail.str());
      } else {
        candidate =
            sched::schedule_zero_jitter_masked(view, config, usable, headroom);
        if (candidate.feasible) {
          log(RepairKind::kFullRepack,
              "pinned repair infeasible; Algorithm 1 re-run on survivors");
        }
      }
    }
  } else {
    candidate =
        sched::schedule_zero_jitter_masked(view, config, usable, headroom);
    if (candidate.feasible) {
      log(RepairKind::kRephase,
          "re-solved placement/phasing on the degraded network view");
    }
  }

  // ---- Step 2: validate under the residual faults; degrade knobs until
  // ---- every surviving stream is served within the SLO (or the floor).
  for (std::size_t round = 0; round <= policy.max_degrade_rounds; ++round) {
    if (candidate.feasible) {
      const sim::SimReport post = sim::simulate(view, candidate, validate);
      if (post.unserved_streams == 0 && post.slo_violations == 0) {
        // Accounting contract: a successful repair leaves no orphan behind
        // silently — every sub-stream sits on a usable server, and the
        // action log records how the placement (or its knobs) changed.
        for (std::size_t server : candidate.assignment) {
          PAMO_ENSURES(server < usable.size() && usable[server],
                       "repaired schedule must not place streams on "
                       "unusable servers");
        }
        PAMO_ENSURES(!report.repairs.empty(),
                     "a successful repair must record its actions");
        report.repaired = true;
        report.repaired_config = std::move(config);
        report.repaired_schedule = std::move(candidate);
        report.post_repair_sim = post;
        return;
      }
      if (round == policy.max_degrade_rounds) break;
      // Blame the parents that missed the SLO or went unserved; if the
      // signal does not single anyone out, degrade everyone a step.
      std::vector<bool> blame(scheduled.num_streams(), false);
      bool any_blame = false;
      for (std::size_t i = 0; i < post.per_stream.size(); ++i) {
        const auto& stats = post.per_stream[i];
        if (stats.slo_violations > 0 ||
            (stats.emitted > 0 && stats.frames == 0)) {
          blame[candidate.streams[i].parent] = true;
          any_blame = true;
        }
      }
      bool stepped = false;
      for (std::size_t p = 0; p < config.size(); ++p) {
        if (any_blame && !blame[p]) continue;
        // Under a collapsed uplink shrink the frame first (fewer bits);
        // otherwise shed frame rate first (more period slack).
        stepped |= step_down(config[p], /*resolution_first=*/degraded_net);
      }
      if (!stepped) break;  // every blamed stream is at the knob floor
      std::ostringstream detail;
      detail << "round " << round + 1 << ": stepped down "
             << (degraded_net ? "resolution-first" : "fps-first")
             << " to recover the SLO";
      log(RepairKind::kKnobStepDown, detail.str());
    } else {
      if (round == policy.max_degrade_rounds) break;
      bool stepped = false;
      for (auto& stream_config : config) {
        stepped |= step_down(stream_config, /*resolution_first=*/false);
      }
      if (!stepped) break;
      std::ostringstream detail;
      detail << "round " << round + 1
             << ": no feasible packing on survivors; stepped all knobs down";
      log(RepairKind::kKnobStepDown, detail.str());
    }
    candidate =
        sched::schedule_zero_jitter_masked(view, config, usable, headroom);
  }
  // Repair failed: the report keeps the (faulted) measured behaviour and
  // the action log; report.repaired stays false so callers can escalate.
}

SchedulingService::EpochReport SchedulingService::run_epoch(
    pref::PreferenceOracle& oracle) {
  PAMO_SPAN("service.run_epoch");
  PAMO_COUNT("service.epochs", 1);
  EpochReport report;
  report.epoch = epoch_;
  const std::size_t queries_before = oracle.queries_answered();

  // ---- Materialize this epoch's workload: the churn overlay first, then
  // ---- governor admission. With both disabled the base workload is used
  // ---- untouched (epoch_workload_ stays empty — no copy, no new code
  // ---- path, bit-for-bit the churn-free service).
  epoch_workload_.reset();
  const bool churning = churn_.enabled();
  if (churning) {
    const eva::EpochChurn& step = churn_.churn_at(epoch_);
    report.churn.arrived = step.arrived.size();
    report.churn.departed = step.departed.size();
    report.churn.load_factor = step.load_factor;
    epoch_workload_ = churn_.offered_workload(workload_, epoch_);
  }
  report.churn.offered = active_workload().num_streams();
  if (churning || governor_.options().enabled) {
    GovernorPlan plan = governor_.plan_epoch(epoch_, active_workload());
    report.churn.admitted = plan.admitted_count;
    report.churn.deferred = plan.deferred;
    report.churn.shed = plan.shed;
    report.churn.offered_load = plan.offered_load;
    report.churn.admitted_load = plan.admitted_load;
    report.governor_actions = std::move(plan.actions);
    PAMO_COUNT("service.streams_shed", plan.shed);
    PAMO_COUNT("service.streams_deferred", plan.deferred);
    if (plan.admitted_count < report.churn.offered) {
      const eva::Workload& offered = active_workload();
      eva::Workload admitted;
      admitted.uplink_mbps = offered.uplink_mbps;
      admitted.space = offered.space;
      admitted.clips.reserve(plan.admitted.size());
      for (std::size_t i : plan.admitted) {
        admitted.clips.push_back(offered.clips[i]);
      }
      epoch_workload_ = std::move(admitted);
    }
  } else {
    report.churn.admitted = report.churn.offered;
  }
  const eva::Workload& active = active_workload();
  if (active.num_streams() == 0) {
    // The governor admitted nothing (extreme overload or a churn trough).
    // There is no decision to make: the epoch is infeasible by
    // construction and the next epoch re-plans.
    report.health.error_message = "no streams admitted this epoch";
    ++epoch_;
    PAMO_COUNT("service.infeasible_epochs", 1);
    return report;
  }

  // The optimization may die wholesale under corrupted telemetry (too few
  // finite profiles to fit any model at all). Absorb the error: the epoch
  // is then infeasible and flows into the last-known-good fallback below
  // — the service invariant is that no pamo::Error escapes run_epoch.
  PamoResult result;
  try {
    if (options_.fleet.enabled &&
        active.num_streams() >= options_.fleet.min_streams) {
      // Fleet-scale epoch: shard the workload and optimize per shard. The
      // per-shard seed space is re-derived from the epoch the same way the
      // flat path decorrelates epochs.
      FleetOptions fleet = options_.fleet;
      fleet.pamo.seed = options_.seed + 7919 * (epoch_ + 1);
      if (telemetry_.has_value()) fleet.pamo.telemetry = &*telemetry_;
      result = run_fleet_epoch(active, fleet, oracle);
    } else {
      PamoOptions options = epoch_ == 0 ? options_.initial : options_.steady;
      if (!options.use_true_preference) {
        ensure_learner(oracle);
        options.shared_learner = &*learner_;
      }
      // Decorrelate epochs while keeping the service deterministic.
      options.seed = options_.seed + 7919 * (epoch_ + 1);
      if (telemetry_.has_value()) options.telemetry = &*telemetry_;
      // Continual learning: steady-state epochs reuse the retained outcome
      // bank instead of re-profiling init_profiles samples and re-running
      // the hyperparameter MLE. The knobs-only GPs transfer across churn
      // (they never key on stream identity).
      if (options_.continual.warm_start && epoch_ > 0 &&
          retained_models_.has_value() && retained_models_->is_fit()) {
        options.warm_start = &*retained_models_;
        options.warm_profiles = options_.continual.warm_profiles;
      }

      PamoScheduler scheduler(active, options);
      result = scheduler.run(oracle);
      if (options_.retain_outcome_models &&
          scheduler.outcome_models().is_fit()) {
        // Copy (never move — the scheduler still owns its run) so the
        // fitted model bank rides along in snapshot(). No RNG is touched.
        retained_models_ = scheduler.outcome_models();
      }
    }
  } catch (const Error& e) {
    result.feasible = false;
    report.health.optimizer_error = true;
    report.health.error_message = e.what();
  }
  report.health.learning = result.health;
  report.benefit_trace = std::move(result.benefit_trace);
  // Long lineages: bound the shared preference pool (in-loop comparisons
  // grow it every epoch) before the next epoch extends it again.
  if (options_.continual.pref_pool_cap > 0 && learner_.has_value() &&
      learner_->pool().size() > options_.continual.pref_pool_cap) {
    const std::size_t dropped = learner_->compact_pool(
        options_.continual.pref_pool_cap, options_.pref_pool_size);
    PAMO_COUNT("service.pref_pool_dropped", dropped);
  }
  ++epoch_;
  report.oracle_queries = oracle.queries_answered() - queries_before;

  if (result.feasible) {
    report.feasible = true;
    report.config = result.best_config;
    report.schedule = result.best_schedule;
    last_good_ = LastGood{report.config, report.schedule};
  } else if (last_good_.has_value() &&
             last_good_->config.size() == active.num_streams()) {
    // An infeasible epoch must never leave callers running with nothing:
    // carry the last-known-good decision forward, re-scheduled against
    // the current workload when possible, verbatim otherwise. Under churn
    // the previous decision only transfers when the stream set has the
    // same cardinality (the size guard above) — otherwise the epoch stays
    // infeasible and the next one re-plans.
    sched::ScheduleResult rebuilt =
        sched::schedule_zero_jitter(active, last_good_->config);
    const bool previous_fits = std::all_of(
        last_good_->schedule.assignment.begin(),
        last_good_->schedule.assignment.end(),
        [&](std::size_t server) { return server < active.num_servers(); });
    if (rebuilt.feasible) {
      report.feasible = true;
      report.fallback = true;
      report.config = last_good_->config;
      report.schedule = std::move(rebuilt);
      report.repairs.push_back(
          {RepairKind::kFallbackSchedule,
           "epoch optimization infeasible; last-known-good configuration "
           "re-scheduled on the current workload"});
    } else if (previous_fits) {
      report.feasible = true;
      report.fallback = true;
      report.config = last_good_->config;
      report.schedule = last_good_->schedule;
      report.repairs.push_back(
          {RepairKind::kFallbackSchedule,
           "epoch optimization infeasible; previous epoch's schedule "
           "carried forward verbatim"});
    }
  }
  report.health.fallback_taken = report.fallback;
  PAMO_COUNT("service.fallbacks", report.fallback ? 1 : 0);
  PAMO_COUNT("service.infeasible_epochs", report.feasible ? 0 : 1);
  PAMO_ENSURES(epoch_ == report.epoch + 1, "run_epoch advances one epoch");
  if (!report.feasible) return report;
  PAMO_ENSURES(report.schedule.feasible &&
                   report.schedule.assignment.size() ==
                       report.schedule.streams.size(),
               "a feasible epoch carries a complete schedule");

  sim::SimOptions sim_options = options_.sim;
  if (fault_plan_.has_value()) sim_options.faults = &*fault_plan_;
  if (options_.resilience.slo_latency > 0.0) {
    sim_options.slo_latency = options_.resilience.slo_latency;
  }
  report.sim = sim::simulate(active, report.schedule, sim_options);

  if (options_.resilience.enabled) {
    try {
      attempt_repair(report);
    } catch (const Error& e) {
      // A failed repair must not take the epoch down with it: keep the
      // (faulted) measured report and record what broke.
      report.health.repair_error = true;
      report.health.error_message = e.what();
    }
    PAMO_COUNT("service.repairs_applied", report.repaired ? 1 : 0);
  }
  PAMO_GAUGE("service.epoch_benefit",
             report.benefit_trace.empty() ? 0.0 : report.benefit_trace.back());
  return report;
}

}  // namespace pamo::core
