#include "core/pamo.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/quasi.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace pamo::core {

namespace {

std::vector<double> to_vector(const eva::OutcomeVector& y) {
  return std::vector<double>(y.begin(), y.end());
}

/// Telemetry tag base of the scheduler's own Phase-1 profiles.
constexpr std::uint64_t kPhase1Tag = 0xA000;

/// Each stream's knob-grid row. grid_index() is a linear scan, so callers
/// resolve a candidate once instead of once per MC scenario.
std::vector<std::size_t> grid_rows_of(const OutcomeModels& models,
                                      const eva::JointConfig& config) {
  std::vector<std::size_t> rows;
  rows.reserve(config.size());
  for (const auto& c : config) rows.push_back(models.grid_index(c));
  return rows;
}

/// The models' posterior means as a one-scenario table set for
/// outcomes_from_rows (scenario 0).
std::vector<la::Matrix> mean_tables(const OutcomeModels& models) {
  const la::Matrix means = models.mean_grid_table();
  std::vector<la::Matrix> tables(kNumMetrics, la::Matrix(1, means.cols()));
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    for (std::size_t g = 0; g < means.cols(); ++g) {
      tables[m](0, g) = means(m, g);
    }
  }
  return tables;
}

}  // namespace

void add_model_health(LearningHealth& health, const gp::GpFitDiagnostics& now,
                      const gp::GpFitDiagnostics& base) {
  health.samples_rejected += now.rows_rejected - base.rows_rejected;
  health.outliers_downweighted +=
      now.outliers_downweighted - base.outliers_downweighted;
  health.cholesky_recoveries +=
      now.cholesky_recoveries - base.cholesky_recoveries;
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

eva::OutcomeVector outcomes_from_rows(const std::vector<la::Matrix>& tables,
                                      std::size_t sample,
                                      const std::vector<std::size_t>& grid_rows,
                                      const eva::JointConfig& config,
                                      const sched::ScheduleResult& schedule) {
  PAMO_EXPECTS(tables.size() == kNumMetrics && sample < tables[0].rows() &&
                   grid_rows.size() == config.size() &&
                   schedule.uplink_per_parent.size() == config.size(),
               "one grid row and one uplink per stream of the config");
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

CandidatePool draw_feasible(const eva::Workload& workload,
                            const std::vector<eva::JointConfig>& incumbents,
                            const std::vector<eva::JointConfig>& observed,
                            const PoolOptions& options,
                            std::size_t max_feasible, Rng& rng) {
  PAMO_SPAN("pamo.draw_feasible");
  const std::size_t m = workload.num_streams();
  PAMO_CHECK(m >= 1, "candidate draw needs at least one stream");
  const auto& resolutions = workload.space.resolutions();
  const auto& fps_knobs = workload.space.fps_knobs();
  const std::size_t num_res = resolutions.size();
  const std::size_t num_fps = fps_knobs.size();
  // ConfigSpace holds at least one knob per axis, in ascending order.
  const std::uint32_t slowest_fps = fps_knobs.front();
  const std::uint32_t fastest_fps = fps_knobs.back();
  // A point of [0,1]^(2M): coordinate 2i is stream i's resolution axis,
  // 2i + 1 its fps axis. An axis narrowed by n knobs keeps its lowest
  // K - n (at least one) and splits into that many equal cells; snap
  // returns the knob index of the cell u falls in.
  const auto snap = [](double u, std::size_t knobs, std::size_t narrow) {
    const std::size_t cells = knobs > narrow ? knobs - narrow : 1;
    const auto k = static_cast<std::size_t>(std::clamp(u, 0.0, 1.0) *
                                            static_cast<double>(cells));
    return std::min(k, cells - 1);
  };
  // The index of a knob value; knobs.size() when it is not a knob.
  const auto index_of = [](std::uint32_t value,
                           const std::vector<std::uint32_t>& knobs) {
    return static_cast<std::size_t>(
        std::find(knobs.begin(), knobs.end(), value) - knobs.begin());
  };
  const auto midpoint = [&](std::uint32_t value,
                            const std::vector<std::uint32_t>& knobs) {
    const std::size_t k = index_of(value, knobs);
    PAMO_CHECK(k < knobs.size(), "incumbent value is not a knob");
    return (static_cast<double>(k) + 0.5) / static_cast<double>(knobs.size());
  };

  // Algorithm 1's load screen, term by term as sched::exceeds_load_bound
  // sums it: stream i at knobs (r, f) loads proc[i·R + r]·fps[f].
  // rest_min[i] is a lower bound on the load of streams i.. at any knobs,
  // and `reachable` bounds from above the load any knobs can pass (the
  // capacity at the largest fps knob, widened past the rounding of either
  // sum), so a point whose partial load already rules it out is dropped
  // without reading its other coordinates.
  std::vector<double> proc(m * num_res);
  std::vector<double> rest_min(m + 1, 0.0);
  for (std::size_t i = m; i-- > 0;) {
    double lightest = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < num_res; ++r) {
      proc[i * num_res + r] = workload.clips[i].proc_time(resolutions[r]);
      lightest = std::min(lightest, proc[i * num_res + r]);
    }
    rest_min[i] = rest_min[i + 1] + lightest * slowest_fps;
  }
  const double reachable =
      sched::load_capacity(workload.num_servers(), fastest_fps) *
      (1.0 + 4.0 * static_cast<double>(m + 1) *
                 std::numeric_limits<double>::epsilon());
  std::vector<std::size_t> knob(2 * m);  // the point's knob indices
  const auto passes_screen = [&](const auto& coordinate, std::size_t narrow) {
    double load = 0.0;
    std::uint32_t max_fps = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t r = snap(coordinate(2 * i), num_res, narrow);
      const std::size_t f = snap(coordinate(2 * i + 1), num_fps, narrow);
      knob[2 * i] = r;
      knob[2 * i + 1] = f;
      load += proc[i * num_res + r] * fps_knobs[f];
      max_fps = std::max(max_fps, fps_knobs[f]);
      if (load + rest_min[i + 1] > reachable) return false;
    }
    return !(load > sched::load_capacity(workload.num_servers(), max_fps));
  };

  // Membership of drawn and observed configurations, keyed by each
  // stream's knob-grid cell packed into bits. The set is never iterated.
  const std::size_t cell_bits =
      std::max<std::size_t>(1, std::bit_width(num_res * num_fps - 1));
  PAMO_CHECK(cell_bits <= 56, "knob grid too large to pack");
  std::string key;
  const auto pack = [&](const std::vector<std::size_t>& indices) {
    key.clear();
    std::uint64_t bits = 0;  // fewer than 8 pending after each stream
    std::size_t pending = 0;
    for (std::size_t i = 0; i < m; ++i) {
      bits |= static_cast<std::uint64_t>(indices[2 * i] * num_fps +
                                         indices[2 * i + 1])
              << pending;
      for (pending += cell_bits; pending >= 8; pending -= 8) {
        key.push_back(static_cast<char>(bits & 0xFFU));
        bits >>= 8;
      }
    }
    if (pending > 0) key.push_back(static_cast<char>(bits));
    return key;
  };
  std::unordered_set<std::string> seen;
  for (const auto& config : observed) {
    // A configuration off the knob grid can never equal a drawn one.
    if (config.size() != m) continue;
    bool on_grid = true;
    for (std::size_t i = 0; i < m && on_grid; ++i) {
      knob[2 * i] = index_of(config[i].resolution, resolutions);
      knob[2 * i + 1] = index_of(config[i].fps, fps_knobs);
      on_grid = knob[2 * i] < num_res && knob[2 * i + 1] < num_fps;
    }
    if (on_grid) seen.insert(pack(knob));
  }

  CandidatePool pool;
  std::size_t screened = 0;
  const auto full = [&] { return pool.configs.size() >= max_feasible; };
  // The load screen runs first: a screened point is never feasible, so it
  // pays neither the set insert nor the full call, and only a point that
  // passes becomes a configuration.
  const auto keep = [&](const auto& coordinate, std::size_t narrow) {
    if (!passes_screen(coordinate, narrow)) {
      ++screened;
      return false;
    }
    if (!seen.insert(pack(knob)).second) return false;
    eva::JointConfig config(m);
    for (std::size_t i = 0; i < m; ++i) {
      config[i] = {resolutions[knob[2 * i]], fps_knobs[knob[2 * i + 1]]};
    }
    sched::ScheduleResult schedule =
        sched::schedule_zero_jitter(workload, config);
    if (!schedule.feasible) return false;  // zero-jitter constraint (Const2)
    pool.configs.push_back(std::move(config));
    pool.schedules.push_back(std::move(schedule));
    return true;
  };

  HaltonSequence halton(2 * m, rng.next_u64());
  std::vector<double> unit(2 * m);
  std::vector<double> mutated(2 * m);
  const auto mutated_at = [&](std::size_t d) { return mutated[d]; };
  for (const auto& incumbent : incumbents) {
    PAMO_CHECK(incumbent.size() == m, "incumbent must configure every stream");
    for (std::size_t i = 0; i < m; ++i) {
      unit[2 * i] = midpoint(incumbent[i].resolution, resolutions);
      unit[2 * i + 1] = midpoint(incumbent[i].fps, fps_knobs);
    }
    for (std::size_t k = 0; k < options.mutations_per_incumbent && !full();
         ++k) {
      // Perturb a few coordinates and keep the rest: local moves in a
      // product space should change only a few streams at a time.
      mutated = unit;
      const std::size_t num_mutated = 1 + rng.uniform_index(m);
      for (std::size_t j = 0; j < num_mutated; ++j) {
        double& coord = mutated[rng.uniform_index(2 * m)];
        coord = std::clamp(coord + rng.normal(0.0, options.mutation_sigma),
                           0.0, 1.0);
      }
      keep(mutated_at, 0);
    }
  }
  // With incumbents the Halton share is num_quasi_random points. Without
  // them it has 64 attempts per wanted configuration, and each run of 8
  // failures narrows both axes by one more knob, towards the light end
  // where loaded workloads still pass, until one is kept.
  const bool narrowing = incumbents.empty();
  const std::size_t attempts =
      narrowing ? 64 * std::min(max_feasible,
                                std::numeric_limits<std::size_t>::max() / 64)
                : options.num_quasi_random;
  const auto halton_at = [&](std::size_t d) { return halton.coordinate(d); };
  std::size_t failures = 0;
  for (std::size_t i = 0; i < attempts && !full(); ++i) {
    const bool kept = keep(halton_at, narrowing ? failures / 8 : 0);
    halton.advance();
    failures = kept ? 0 : failures + 1;
  }
  PAMO_COUNT("pamo.pool_screened", screened);
  PAMO_ENSURES(pool.configs.size() == pool.schedules.size() &&
                   pool.configs.size() <= max_feasible,
               "one schedule per kept candidate, at most max_feasible");
  return pool;
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
      models_(options_.warm_start != nullptr && options_.warm_start->is_fit()
                  ? *options_.warm_start
                  : OutcomeModels(workload.space, options_.gp)) {
  PAMO_CHECK(workload_.num_streams() > 0, "empty workload");
  PAMO_CHECK(options_.batch_size >= 1, "batch size must be >= 1");
  if (options_.scenario_bases != nullptr) {
    const auto& bases = *options_.scenario_bases;
    PAMO_CHECK(bases.size() >= options_.max_iters,
               "one shared scenario base per BO iteration");
    for (const auto& base : bases) {
      PAMO_CHECK(base.size() == kNumMetrics,
                 "a scenario base holds one normal table per metric");
      for (const auto& normals : base) {
        PAMO_CHECK(normals.rows() == options_.mc_samples &&
                       normals.cols() == models_.grid().size(),
                   "scenario base tables are mc_samples x |knob grid|");
      }
    }
  }
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

PamoScheduler::Observation PamoScheduler::observe(
    const eva::JointConfig& config, sched::ScheduleResult schedule,
    Rng& rng) {
  PAMO_SPAN("pamo.observe");
  Observation obs;
  obs.config = config;
  obs.schedule = std::move(schedule);
  obs.grid_rows = grid_rows_of(models_, config);

  eva::TelemetryCorruption* telemetry = options_.telemetry;
  const bool corrupting = telemetry != nullptr && telemetry->enabled();
  // A lost or non-finite report is replaced by the models' belief, which
  // must include every profile taken so far.
  if (corrupting) feed_models();

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
  obs.normalized =
      normalizer_.normalize(eva::aggregate_outcomes(measurements, latencies));
  feed_configs_.insert(feed_configs_.end(), feed_configs.begin(),
                       feed_configs.end());
  feed_measurements_.insert(feed_measurements_.end(),
                            feed_measurements.begin(), feed_measurements.end());
  return obs;
}

OutcomeModels PamoScheduler::take_outcome_models(PamoResult& result) {
  const gp::GpFitDiagnostics before = models_.diagnostics();
  feed_models();
  add_model_health(result.health, models_.diagnostics(), before);
  return std::move(models_);
}

void PamoScheduler::feed_models() {
  if (feed_configs_.empty()) return;
  // Hand the rows over before updating: a refit that throws (a failed
  // iteration under the watchdog) must not feed them twice.
  const auto configs = std::exchange(feed_configs_, {});
  const auto measurements = std::exchange(feed_measurements_, {});
  models_.update(configs, measurements);
}

double PamoScheduler::utility(const eva::OutcomeVector& normalized,
                              const pref::PreferenceOracle& oracle) const {
  if (options_.use_true_preference) {
    return oracle.benefit().value(normalized);
  }
  PAMO_ASSERT(active_learner_ != nullptr, "preference model missing");
  return active_learner_->model().utility_mean(normalized);
}

void PamoScheduler::heuristic_fallback(PamoResult& result,
                                       const pref::PreferenceOracle& oracle,
                                       Rng& rng) {
  health_.heuristic_fallback = true;
  if (!models_.is_fit()) return;  // nothing to score with
  feed_models();
  // One clean "scenario" built from posterior point estimates — no MC
  // sampling, no acquisition, just Algorithm 1 feasibility plus the
  // models' best guess of each candidate's utility.
  const std::vector<la::Matrix> tables = mean_tables(models_);
  CandidatePool drawn =
      draw_feasible(workload_, {}, {}, PoolOptions{}, 16, rng);
  double best_utility = -1e300;
  for (std::size_t c = 0; c < drawn.configs.size(); ++c) {
    const eva::OutcomeVector y =
        outcomes_from_rows(tables, 0, grid_rows_of(models_, drawn.configs[c]),
                           drawn.configs[c], drawn.schedules[c]);
    const double u = utility(normalizer_.normalize(y), oracle);
    if (u > best_utility) {
      best_utility = u;
      result.best_config = drawn.configs[c];
      result.best_schedule = std::move(drawn.schedules[c]);
      result.feasible = true;
    }
  }
}

PamoResult PamoScheduler::run(pref::PreferenceOracle& oracle) {
  PAMO_SPAN("pamo.run");
  Rng rng(options_.seed);
  PamoResult result;
  health_ = {};
  feed_configs_.clear();  // left by a run() that threw
  feed_measurements_.clear();
  const std::size_t queries_before = oracle.queries_answered();
  bo::EpochWatchdog watchdog(options_.watchdog);
  watchdog.arm();

  // ---- Phase 1: outcome-function fitting (Alg. 2 lines 1–4). ----
  // Warm-started diagnostics baseline: the transplanted bank carries
  // counters from previous epochs; health reports this epoch's deltas.
  gp::GpFitDiagnostics warm_base;
  const bool warm =
      options_.warm_start != nullptr && options_.warm_start->is_fit();
  const bool models_used = std::exchange(models_used_, true);
  if (warm) {
    PAMO_SPAN("pamo.phase1_warm_start");
    // Continual learning: transplant the retained bank — posteriors and
    // noise downweights included — and re-anchor it with a few fresh
    // profiles. The expensive MLE refit never runs. The profiles wait for
    // the first feed_models(), so without an earlier read of the models
    // they fold in with the initial observations in one update. The
    // constructor copied the bank; a later run() copies it again.
    if (models_used) models_ = *options_.warm_start;
    warm_base = models_.diagnostics();
    health_.warm_started = true;
    Phase1Profiles fresh =
        profile_phase1(workload_, options_.warm_profiles, rng,
                       options_.telemetry, kPhase1Tag);
    health_.samples_rejected += fresh.dropped;
    feed_configs_ = std::move(fresh.configs);
    feed_measurements_ = std::move(fresh.measurements);
    profiles_taken_ = options_.warm_profiles;
  } else {
    PAMO_SPAN("pamo.phase1_outcome_fit");
    const Phase1Profiles fresh =
        profile_phase1(workload_, options_.init_profiles, rng,
                       options_.telemetry, kPhase1Tag);
    health_.samples_rejected += fresh.dropped;
    models_.fit(fresh.configs, fresh.measurements);
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
      // Model-mean outcome vectors of feasible candidates: what the
      // system can show the decision-maker without extra measurements.
      feed_models();
      const std::vector<la::Matrix> means = mean_tables(models_);
      const CandidatePool drawn = draw_feasible(
          workload_, {}, {}, PoolOptions{}, options_.pref_pool_size, rng);
      std::vector<std::vector<double>> pool;
      pool.reserve(drawn.configs.size());
      for (std::size_t c = 0; c < drawn.configs.size(); ++c) {
        const eva::JointConfig& config = drawn.configs[c];
        pool.push_back(to_vector(normalizer_.normalize(
            outcomes_from_rows(means, 0, grid_rows_of(models_, config), config,
                               drawn.schedules[c]))));
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
  // Initial observations: each is drawn right before it is profiled, and
  // never repeats an earlier one; a breached watchdog stops the drawing.
  std::vector<Observation> observed;
  std::vector<eva::JointConfig> drawn_initial;
  for (std::size_t i = 0; i < options_.init_observations; ++i) {
    if (watchdog.breached()) break;
    CandidatePool initial =
        draw_feasible(workload_, {}, drawn_initial, PoolOptions{}, 1, rng);
    if (initial.configs.empty()) break;
    drawn_initial.push_back(initial.configs[0]);
    try {
      observed.push_back(
          observe(initial.configs[0], std::move(initial.schedules[0]), rng));
    } catch (const Error& e) {
      if (!watchdog.enabled()) throw;
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

  double z_prev = -1e300;
  // One BO iteration; returns false to stop the loop.
  auto step = [&](std::size_t iter) {
    PAMO_SPAN("pamo.bo_iteration");
    PAMO_COUNT("bo.iterations", 1);
    feed_models();  // the previous batch (or the initial observations)
    // The preference belief changes only after this iteration's batch, so
    // every observation is scored once here.
    std::vector<double> obs_utility(observed.size());
    for (std::size_t i = 0; i < observed.size(); ++i) {
      obs_utility[i] = utility(observed[i].normalized, oracle);
    }
    // Incumbents: the best few observed configurations by current utility.
    std::vector<std::size_t> obs_order(observed.size());
    for (std::size_t i = 0; i < obs_order.size(); ++i) obs_order[i] = i;
    std::stable_sort(obs_order.begin(), obs_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return obs_utility[a] > obs_utility[b];
                     });
    std::vector<eva::JointConfig> incumbents;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, obs_order.size());
         ++i) {
      incumbents.push_back(observed[obs_order[i]].config);
    }

    // Candidate pool: incumbent mutations + quasi-random points, new
    // configurations only, scheduled by Algorithm 1.
    std::vector<eva::JointConfig> observed_configs;
    observed_configs.reserve(observed.size());
    for (const auto& obs : observed) observed_configs.push_back(obs.config);
    auto [pool_configs, pool_schedules] =
        draw_feasible(workload_, incumbents, observed_configs, options_.pool,
                      options_.max_pool_feasible, rng);
    if (pool_configs.empty()) return false;

    // Joint MC scenarios over the knob grid: fresh normals every
    // iteration, drawn here or shared by the fleet's shards.
    const std::size_t num_samples = options_.mc_samples;
    const auto tables = [&] {
      PAMO_SPAN("pamo.grid_tables");
      if (options_.scenario_bases != nullptr) {
        return models_.colour_grid_tables((*options_.scenario_bases)[iter]);
      }
      return models_.sample_grid_tables(num_samples, rng);
    }();

    const std::size_t num_pool = pool_configs.size();
    const std::size_t num_obs = observed.size();
    std::vector<std::vector<std::size_t>> pool_rows;
    pool_rows.reserve(num_pool);
    for (const auto& config : pool_configs) {
      pool_rows.push_back(grid_rows_of(models_, config));
    }

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
                  tables, s, observed[o].grid_rows, observed[o].config,
                  observed[o].schedule);
              z_obs(s, o) = utility(normalizer_.normalize(y), oracle);
            }
          },
          /*grain=*/16);
    }
    double best_observed = -1e300;
    for (const double u : obs_utility) best_observed = std::max(best_observed, u);

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
    // With the watchdog on, a failed iteration (corrupt profile that
    // defeats repair, broken model refit) burns failure budget instead of
    // killing the epoch; the next iteration retries with what was gathered
    // so far. With it off, the failure propagates.
    try {
      if (!step(iter)) break;
    } catch (const Error& e) {
      if (!watchdog.enabled()) throw;
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
