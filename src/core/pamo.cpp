#include "core/pamo.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace pamo::core {

namespace {

std::vector<double> to_vector(const eva::OutcomeVector& y) {
  return std::vector<double>(y.begin(), y.end());
}

/// Telemetry tag base of the scheduler's own Phase-1 profiles.
constexpr std::uint64_t kPhase1Tag = 0xA000;

}  // namespace

void add_model_health(LearningHealth& health, const gp::GpFitDiagnostics& now,
                      const gp::GpFitDiagnostics& base) {
  health.samples_rejected += now.rows_rejected - base.rows_rejected;
  health.outliers_downweighted +=
      now.outliers_downweighted - base.outliers_downweighted;
  health.cholesky_recoveries +=
      now.cholesky_recoveries - base.cholesky_recoveries;
  health.drift_fires += now.drift_fires - base.drift_fires;
  health.drift_downweighted += now.drift_downweighted - base.drift_downweighted;
  health.max_jitter_applied = std::max(
      {health.max_jitter_applied, now.fit_jitter, now.posterior_jitter});
}

Phase1Profiles profile_phase1(const eva::Workload& workload, std::size_t count,
                              Rng& rng, eva::TelemetryCorruption* telemetry,
                              std::uint64_t telemetry_tag) {
  const bool corrupting = telemetry != nullptr && telemetry->enabled();
  const std::size_t n = workload.num_streams();
  PAMO_EXPECTS(n > 0 || count == 0, "profiling an empty workload");
  const eva::Profiler profiler;
  Phase1Profiles out;
  out.configs.reserve(count);
  out.measurements.reserve(count);
  for (std::size_t u = 0; u < count; ++u) {
    const eva::StreamConfig config = workload.space.sample(rng);
    Rng sample_rng = rng.fork(0xA000 + u);
    eva::StreamMeasurement meas =
        profiler.measure(workload.clips[u % n], config, sample_rng);
    if (corrupting && !telemetry->corrupt(meas, u % n, telemetry_tag + u)) {
      ++out.dropped;  // report lost before it reached us
      continue;
    }
    out.configs.push_back(config);
    out.measurements.push_back(meas);
  }
  PAMO_ENSURES(out.configs.size() + out.dropped == count,
               "every profile is either kept or counted as dropped");
  return out;
}

PamoOptions PamoScheduler::harden(PamoOptions options) {
  if (options.telemetry != nullptr && options.telemetry->enabled()) {
    options.gp.reject_nonfinite = true;
    options.gp.robust_noise = true;
    options.pref_learner.model.downweight_inconsistent = true;
  }
  return options;
}

PamoScheduler::PamoScheduler(const eva::Workload& workload,
                             PamoOptions options)
    : workload_(workload),
      options_(harden(std::move(options))),
      normalizer_(eva::OutcomeNormalizer::for_workload(workload)),
      models_(workload.space, options_.gp) {
  PAMO_CHECK(workload_.num_streams() > 0, "empty workload");
  PAMO_CHECK(options_.batch_size >= 1, "batch size must be >= 1");
}

eva::StreamMeasurement PamoScheduler::model_mean_measurement(
    const eva::StreamConfig& config) const {
  eva::StreamMeasurement m{};
  m.accuracy = models_.mean(Metric::kAccuracy, config);
  m.bandwidth_mbps = models_.mean(Metric::kBandwidth, config);
  m.compute_tflops = models_.mean(Metric::kCompute, config);
  m.power_watts = models_.mean(Metric::kPower, config);
  m.proc_time = models_.mean(Metric::kProcTime, config);
  return m;
}

std::optional<std::pair<eva::JointConfig, sched::ScheduleResult>>
PamoScheduler::random_feasible(Rng& rng) const {
  const auto& space = workload_.space;
  const std::size_t num_res = space.resolutions().size();
  const std::size_t num_fps = space.fps_knobs().size();
  // Start unconstrained; shrink the knob caps after failed attempts so we
  // always find something schedulable on heavily loaded workloads.
  for (std::size_t attempt = 0; attempt < 64; ++attempt) {
    const std::size_t shrink = attempt / 8;
    const std::size_t cap_res = num_res > shrink ? num_res - shrink : 1;
    const std::size_t cap_fps = num_fps > shrink ? num_fps - shrink : 1;
    eva::JointConfig config(workload_.num_streams());
    for (auto& c : config) {
      c.resolution = space.resolutions()[rng.uniform_index(cap_res)];
      c.fps = space.fps_knobs()[rng.uniform_index(cap_fps)];
    }
    sched::ScheduleResult schedule =
        sched::schedule_zero_jitter(workload_, config);
    if (schedule.feasible) {
      return std::make_pair(std::move(config), std::move(schedule));
    }
  }
  return std::nullopt;
}

PamoScheduler::Observation PamoScheduler::observe(
    const eva::JointConfig& config, sched::ScheduleResult schedule,
    Rng& rng) {
  Observation obs;
  obs.config = config;
  obs.schedule = std::move(schedule);
  obs.unit = workload_.space.joint_to_unit(config);

  eva::TelemetryCorruption* telemetry = options_.telemetry;
  const bool corrupting = telemetry != nullptr && telemetry->enabled();

  const eva::Profiler profiler;
  std::vector<eva::StreamMeasurement> measurements;
  std::vector<double> latencies;
  std::vector<eva::StreamConfig> feed_configs;
  std::vector<eva::StreamMeasurement> feed_measurements;
  measurements.reserve(config.size());
  latencies.reserve(config.size());
  for (std::size_t i = 0; i < config.size(); ++i) {
    Rng stream_rng = rng.fork(profiles_taken_ * 1000 + i);
    eva::StreamMeasurement meas =
        profiler.measure(workload_.clips[i], config[i], stream_rng);
    bool feed = true;
    if (corrupting) {
      const std::uint64_t tag = 0xB0000000ULL + profiles_taken_ * 1000 + i;
      if (!telemetry->corrupt(meas, i, tag)) {
        // Report lost: stand in the models' current belief so the
        // aggregate stays defined — but never feed it back (a model
        // retrained on its own predictions learns nothing).
        meas = model_mean_measurement(config[i]);
        ++health_.samples_rejected;
        feed = false;
      } else {
        bool repaired = false;
        auto fix = [&](double& field, Metric metric) {
          if (!std::isfinite(field)) {
            field = models_.mean(metric, config[i]);
            repaired = true;
          }
        };
        fix(meas.accuracy, Metric::kAccuracy);
        fix(meas.bandwidth_mbps, Metric::kBandwidth);
        fix(meas.compute_tflops, Metric::kCompute);
        fix(meas.power_watts, Metric::kPower);
        fix(meas.proc_time, Metric::kProcTime);
        if (repaired) {
          ++health_.samples_repaired;
          feed = false;  // a repaired row is belief, not evidence
        }
      }
    }
    measurements.push_back(meas);
    // Measured e2e latency: noisy processing time + transfer of the
    // measured frame bits over the assigned uplink (Eq. 5); the schedule
    // is zero-jitter so there is no queueing term.
    const double bits =
        measurements.back().bandwidth_mbps * 1e6 / config[i].fps;
    const double uplink = obs.schedule.uplink_per_parent[i];
    latencies.push_back(measurements.back().proc_time + bits / (uplink * 1e6));
    if (feed) {
      feed_configs.push_back(config[i]);
      feed_measurements.push_back(meas);
    }
  }
  ++profiles_taken_;
  obs.raw = eva::aggregate_outcomes(measurements, latencies);
  obs.normalized = normalizer_.normalize(obs.raw);

  // Feed the outcome models (respecting the training-size cap: past the
  // cap the models are informative enough and refits dominate runtime).
  if (model_points_ < options_.max_model_points && !feed_configs.empty()) {
    models_.update(feed_configs, feed_measurements);
    model_points_ += feed_configs.size();
  }
  return obs;
}

eva::OutcomeVector PamoScheduler::outcomes_from_tables(
    const std::vector<la::Matrix>& tables, std::size_t sample,
    const eva::JointConfig& config,
    const sched::ScheduleResult& schedule) const {
  std::vector<std::size_t> grid_rows;
  grid_rows.reserve(config.size());
  for (const auto& c : config) grid_rows.push_back(models_.grid_index(c));
  return outcomes_from_rows(tables, sample, grid_rows, config, schedule);
}

eva::OutcomeVector PamoScheduler::outcomes_from_rows(
    const std::vector<la::Matrix>& tables, std::size_t sample,
    const std::vector<std::size_t>& grid_rows, const eva::JointConfig& config,
    const sched::ScheduleResult& schedule) const {
  const auto m = static_cast<double>(config.size());
  eva::OutcomeVector y{};
  for (std::size_t i = 0; i < config.size(); ++i) {
    const std::size_t g = grid_rows[i];
    const double acc =
        tables[static_cast<std::size_t>(Metric::kAccuracy)](sample, g);
    const double bw =
        tables[static_cast<std::size_t>(Metric::kBandwidth)](sample, g);
    const double com =
        tables[static_cast<std::size_t>(Metric::kCompute)](sample, g);
    const double eng =
        tables[static_cast<std::size_t>(Metric::kPower)](sample, g);
    const double proc =
        tables[static_cast<std::size_t>(Metric::kProcTime)](sample, g);
    eva::at(y, eva::Objective::kAccuracy) += acc / m;
    eva::at(y, eva::Objective::kNetwork) += std::max(0.0, bw);
    eva::at(y, eva::Objective::kCompute) += std::max(0.0, com);
    eva::at(y, eva::Objective::kEnergy) += std::max(0.0, eng);
    const double bits = std::max(0.0, bw) * 1e6 / config[i].fps;
    const double uplink = schedule.uplink_per_parent[i];
    eva::at(y, eva::Objective::kLatency) +=
        (std::max(0.0, proc) + bits / (uplink * 1e6)) / m;
  }
  return y;
}

double PamoScheduler::utility(const eva::OutcomeVector& normalized,
                              const pref::PreferenceOracle& oracle) const {
  if (options_.use_true_preference) {
    return oracle.benefit().value(normalized);
  }
  PAMO_ASSERT(active_learner_ != nullptr, "preference model missing");
  return active_learner_->model().utility_mean(to_vector(normalized));
}

void PamoScheduler::heuristic_fallback(PamoResult& result,
                                       const pref::PreferenceOracle& oracle,
                                       Rng& rng) {
  health_.heuristic_fallback = true;
  if (!models_.is_fit()) return;  // nothing to score with
  // One clean "scenario" built from posterior point estimates — no MC
  // sampling, no acquisition, just Algorithm 1 feasibility plus the
  // models' best guess of each candidate's utility.
  const la::Matrix means = models_.mean_grid_table();
  const std::size_t grid_size = models_.grid().size();
  std::vector<la::Matrix> tables;
  tables.reserve(kNumMetrics);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    la::Matrix t(1, grid_size);
    for (std::size_t g = 0; g < grid_size; ++g) t(0, g) = means(m, g);
    tables.push_back(std::move(t));
  }
  double best_utility = -1e300;
  for (std::size_t attempt = 0; attempt < 16; ++attempt) {
    auto drawn = random_feasible(rng);
    if (!drawn) continue;
    const auto& [config, schedule] = *drawn;
    const eva::OutcomeVector y =
        outcomes_from_tables(tables, 0, config, schedule);
    const double u = utility(normalizer_.normalize(y), oracle);
    if (u > best_utility) {
      best_utility = u;
      result.best_config = config;
      result.best_schedule = schedule;
      result.feasible = true;
    }
  }
}

PamoResult PamoScheduler::run(pref::PreferenceOracle& oracle) {
  PAMO_SPAN("pamo.run");
  Rng rng(options_.seed);
  PamoResult result;
  health_ = {};
  const std::size_t queries_before = oracle.queries_answered();
  bo::EpochWatchdog watchdog(options_.watchdog);
  watchdog.arm();

  // ---- Phase 1: outcome-function fitting (Alg. 2 lines 1–4). ----
  // Warm-started diagnostics baseline: the transplanted bank carries
  // counters from previous epochs; health reports this epoch's deltas.
  gp::GpFitDiagnostics warm_base;
  const bool warm =
      options_.warm_start != nullptr && options_.warm_start->is_fit();
  if (warm) {
    PAMO_SPAN("pamo.phase1_warm_start");
    // Continual learning: transplant the retained bank — posteriors,
    // noise downweights, and drift-detector state included — and
    // re-anchor it with a few fresh profiles through the incremental
    // update path. The expensive MLE refit never runs.
    models_ = *options_.warm_start;
    model_points_ = models_.num_points();
    warm_base = models_.diagnostics();
    health_.warm_started = true;
    const Phase1Profiles fresh =
        profile_phase1(workload_, options_.warm_profiles, rng,
                       options_.telemetry, kPhase1Tag);
    health_.samples_rejected += fresh.dropped;
    if (model_points_ < options_.max_model_points && !fresh.configs.empty()) {
      models_.update(fresh.configs, fresh.measurements);
      model_points_ += fresh.configs.size();
    }
    profiles_taken_ = options_.warm_profiles;
  } else {
    PAMO_SPAN("pamo.phase1_outcome_fit");
    const Phase1Profiles fresh =
        profile_phase1(workload_, options_.init_profiles, rng,
                       options_.telemetry, kPhase1Tag);
    health_.samples_rejected += fresh.dropped;
    models_.fit(fresh.configs, fresh.measurements);
    model_points_ = fresh.configs.size();
    profiles_taken_ = options_.init_profiles;
  }

  // ---- Phase 2: system preference modeling (lines 5–11). ----
  {
    PAMO_SPAN("pamo.phase2_preference");
    if (!options_.use_true_preference && options_.shared_learner != nullptr) {
      // Long-running mode: the operator's preference is already (partially)
      // learned; reuse it and let the in-loop updates keep refining it.
      active_learner_ = options_.shared_learner;
    } else if (!options_.use_true_preference) {
      std::vector<std::vector<double>> pool;
      pool.reserve(options_.pref_pool_size);
      for (std::size_t p = 0; p < options_.pref_pool_size; ++p) {
        auto drawn = random_feasible(rng);
        if (!drawn) continue;
        const auto& [config, schedule] = *drawn;
        // Model-mean outcome vector of the candidate (what the system can
        // show the decision-maker without extra measurements).
        eva::OutcomeVector y{};
        const auto m = static_cast<double>(config.size());
        for (std::size_t i = 0; i < config.size(); ++i) {
          const auto& c = config[i];
          eva::at(y, eva::Objective::kAccuracy) +=
              models_.mean(Metric::kAccuracy, c) / m;
          const double bw = models_.mean(Metric::kBandwidth, c);
          eva::at(y, eva::Objective::kNetwork) += bw;
          eva::at(y, eva::Objective::kCompute) +=
              models_.mean(Metric::kCompute, c);
          eva::at(y, eva::Objective::kEnergy) += models_.mean(Metric::kPower, c);
          const double bits = bw * 1e6 / c.fps;
          eva::at(y, eva::Objective::kLatency) +=
              (models_.mean(Metric::kProcTime, c) +
               bits / (schedule.uplink_per_parent[i] * 1e6)) /
              m;
        }
        pool.push_back(to_vector(normalizer_.normalize(y)));
      }
      PAMO_CHECK(pool.size() >= 2,
                 "could not build a preference candidate pool (workload "
                 "infeasible for nearly all configurations)");
      learner_.emplace(std::move(pool), options_.pref_learner,
                       rng.next_u64());
      learner_->run(oracle, options_.num_comparisons);
      active_learner_ = &*learner_;
    }
  }

  // Health bookkeeping shared by every exit path.
  auto finalize_health = [&]() {
    // Deltas against the warm-start baseline (all-zero on a cold start),
    // so health always describes *this* epoch.
    add_model_health(health_, models_.diagnostics(), warm_base);
    health_.iteration_failures = watchdog.failures();
    if (watchdog.fired()) health_.watchdog_fires = 1;
    if (!options_.use_true_preference && active_learner_ != nullptr) {
      health_.inconsistent_pairs =
          active_learner_->model().num_inconsistent_pairs();
    }
    result.health = health_;
  };

  // ---- Phase 3: best-configuration solving (lines 12–26). ----
  std::vector<Observation> observed;
  for (std::size_t i = 0; i < options_.init_observations; ++i) {
    if (watchdog.breached()) break;
    auto drawn = random_feasible(rng);
    if (!drawn) break;
    if (!watchdog.enabled()) {
      observed.push_back(observe(drawn->first, std::move(drawn->second), rng));
      continue;
    }
    try {
      observed.push_back(observe(drawn->first, std::move(drawn->second), rng));
    } catch (const Error& e) {
      watchdog.record_failure(e.what());
    }
  }
  if (observed.empty()) {
    result.feasible = false;
    heuristic_fallback(result, oracle, rng);
    result.oracle_queries = oracle.queries_answered() - queries_before;
    result.profiles_taken = profiles_taken_;
    finalize_health();
    return result;
  }

  const std::size_t dim = 2 * workload_.num_streams();
  double z_prev = -1e300;
  // One BO iteration; returns false to stop the loop.
  auto step = [&](std::size_t iter) {
    PAMO_SPAN("pamo.bo_iteration");
    PAMO_COUNT("bo.iterations", 1);
    // Incumbents: the best few observed configurations by current utility.
    std::vector<std::size_t> obs_order(observed.size());
    for (std::size_t i = 0; i < obs_order.size(); ++i) obs_order[i] = i;
    std::stable_sort(obs_order.begin(), obs_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return utility(observed[a].normalized, oracle) >
                              utility(observed[b].normalized, oracle);
                     });
    std::vector<std::vector<double>> incumbents;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, obs_order.size());
         ++i) {
      incumbents.push_back(observed[obs_order[i]].unit);
    }

    // Candidate pool: quasi-random + mutations, scheduled by Algorithm 1.
    const auto raw_pool =
        bo::make_candidate_pool(dim, incumbents, options_.pool, rng);
    std::vector<eva::JointConfig> pool_configs;
    std::vector<sched::ScheduleResult> pool_schedules;
    for (const auto& unit : raw_pool) {
      if (pool_configs.size() >= options_.max_pool_feasible) break;
      eva::JointConfig config = workload_.space.joint_from_unit(unit);
      sched::ScheduleResult schedule =
          sched::schedule_zero_jitter(workload_, config);
      if (!schedule.feasible) continue;  // zero-jitter constraint (Const2)
      pool_configs.push_back(std::move(config));
      pool_schedules.push_back(std::move(schedule));
    }
    if (pool_configs.empty()) return false;

    // Joint MC scenarios over the knob grid.
    const std::size_t num_samples = options_.mc_samples;
    const auto tables = models_.sample_grid_tables(num_samples, rng);

    // Pre-resolve each candidate's knob-grid rows once; grid_index() is a
    // linear scan and would otherwise run once per scenario cell.
    auto grid_rows_of = [&](const eva::JointConfig& config) {
      std::vector<std::size_t> rows;
      rows.reserve(config.size());
      for (const auto& c : config) rows.push_back(models_.grid_index(c));
      return rows;
    };
    const std::size_t num_pool = pool_configs.size();
    const std::size_t num_obs = observed.size();
    std::vector<std::vector<std::size_t>> pool_rows;
    pool_rows.reserve(num_pool);
    for (const auto& config : pool_configs) {
      pool_rows.push_back(grid_rows_of(config));
    }
    std::vector<std::vector<std::size_t>> obs_rows;
    obs_rows.reserve(num_obs);
    for (const auto& obs : observed) obs_rows.push_back(grid_rows_of(obs.config));

    // Scenario evaluations are independent (tables are pre-sampled and the
    // preference model is read-only here), so fan out over every
    // (sample, candidate) cell: each cell is a pure function of its index,
    // making the result bit-identical at any thread count.
    la::Matrix z_pool(num_samples, num_pool);
    la::Matrix z_obs(num_samples, num_obs);
    {
      PAMO_SPAN("pamo.scenario_sweep");
      PAMO_COUNT("pamo.scenario_cells", num_samples * (num_pool + num_obs));
      parallel_for(
          num_samples * (num_pool + num_obs),
          [&](std::size_t idx) {
            const std::size_t s = idx / (num_pool + num_obs);
            const std::size_t c = idx % (num_pool + num_obs);
            if (c < num_pool) {
              const eva::OutcomeVector y = outcomes_from_rows(
                  tables, s, pool_rows[c], pool_configs[c], pool_schedules[c]);
              z_pool(s, c) = utility(normalizer_.normalize(y), oracle);
            } else {
              const std::size_t o = c - num_pool;
              const eva::OutcomeVector y = outcomes_from_rows(
                  tables, s, obs_rows[o], observed[o].config,
                  observed[o].schedule);
              z_obs(s, o) = utility(normalizer_.normalize(y), oracle);
            }
          },
          /*grain=*/16);
    }
    double best_observed = -1e300;
    for (const auto& obs : observed) {
      best_observed =
          std::max(best_observed, utility(obs.normalized, oracle));
    }

    const std::vector<double> scores = bo::acquisition_scores(
        options_.acquisition, z_pool, &z_obs, best_observed);
    const std::vector<std::size_t> batch =
        bo::select_top_batch(scores, options_.batch_size);

    // Observe the recommended batch (line 16: Profile_and_Algorithm1).
    double z_best_batch = -1e300;
    std::vector<std::vector<double>> new_outcomes;
    for (const std::size_t c : batch) {
      Observation obs =
          observe(pool_configs[c], std::move(pool_schedules[c]), rng);
      z_best_batch =
          std::max(z_best_batch, utility(obs.normalized, oracle));
      new_outcomes.push_back(to_vector(obs.normalized));
      observed.push_back(std::move(obs));
    }

    // Line 19: extend the preference data with the new outcome vectors.
    if (!options_.use_true_preference && options_.learn_in_loop) {
      active_learner_->extend_pool(new_outcomes);
      active_learner_->run(oracle, 1);
    }

    result.benefit_trace.push_back(z_best_batch);
    if (std::fabs(z_best_batch - z_prev) < options_.delta && iter > 0) {
      return false;  // line 21: |z − z_p| < δ
    }
    z_prev = z_best_batch;
    return true;
  };

  for (std::size_t iter = 0; iter < options_.max_iters; ++iter) {
    if (watchdog.breached()) break;
    ++result.iterations;
    if (!watchdog.enabled()) {
      if (!step(iter)) break;
      continue;
    }
    // Tolerant mode: a failed iteration (corrupt profile that defeats
    // repair, broken model refit) burns failure budget instead of killing
    // the epoch; the next iteration retries with what was gathered so far.
    try {
      if (!step(iter)) break;
    } catch (const Error& e) {
      watchdog.record_failure(e.what());
    }
  }

  // Final recommendation: the observed configuration with the highest
  // *believed* benefit (the model, not the ground truth, does the picking).
  std::size_t best = 0;
  double best_utility = -1e300;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double u = utility(observed[i].normalized, oracle);
    if (u > best_utility) {
      best_utility = u;
      best = i;
    }
  }
  result.feasible = true;
  result.best_config = observed[best].config;
  result.best_schedule = observed[best].schedule;
  result.oracle_queries = oracle.queries_answered() - queries_before;
  result.profiles_taken = profiles_taken_;
  finalize_health();
  PAMO_ENSURES(result.best_config.size() == workload_.num_streams(),
               "recommendation configures every parent stream");
  PAMO_ENSURES(result.best_schedule.feasible,
               "recommendation carries an Algorithm-1-feasible schedule");
  PAMO_ENSURES(result.benefit_trace.size() <= result.iterations,
               "one trace entry per completed BO iteration");
  return result;
}

}  // namespace pamo::core
