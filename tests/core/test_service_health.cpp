// EpochHealth reporting and corrupted-telemetry tolerance of the
// scheduling service, plus the PamoScheduler epoch watchdog: the learning
// stack absorbs bad telemetry and deadline breaches, records what it
// absorbed, and stays bit-for-bit identical when corruption is disabled.
#include <gtest/gtest.h>

#include "core/pamo.hpp"
#include "core/service.hpp"
#include "eva/clip.hpp"
#include "support/service_fixtures.hpp"

namespace pamo::core {
namespace {

TEST(ServiceHealth, CorruptedTelemetryEpochsCompleteAndAreCounted) {
  SchedulingService service(eva::make_workload(4, 3, 401), tiny_service(21));
  eva::TelemetryCorruptionOptions corruption;
  corruption.nan_rate = 0.05;
  corruption.inf_rate = 0.02;
  corruption.outlier_rate = 0.05;
  corruption.stuck_rate = 0.05;
  corruption.drop_rate = 0.05;
  service.set_telemetry_corruption(corruption);

  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  std::size_t absorbed = 0;
  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto report = service.run_epoch(oracle);
    // The epoch completes and yields a usable decision despite ~20% of
    // telemetry being damaged in some way.
    ASSERT_TRUE(report.feasible);
    EXPECT_FALSE(report.health.optimizer_error);
    absorbed += report.health.learning.samples_rejected +
                report.health.learning.samples_repaired;
  }
  // The corruption model really fired, and the learning stack saw it.
  const eva::TelemetryCorruption* model = service.telemetry_corruption();
  ASSERT_NE(model, nullptr);
  EXPECT_GT(model->counters().total_measurements, 0u);
  EXPECT_GT(model->counters().corrupted_fields() +
                model->counters().dropped_measurements,
            0u);
  EXPECT_GT(absorbed, 0u);
}

TEST(ServiceHealth, DisabledCorruptionModelIsBitForBit) {
  const eva::Workload w = eva::make_workload(4, 3, 402);
  SchedulingService plain(w, tiny_service(22));
  SchedulingService with_model(w, tiny_service(22));
  // All rates zero: the model is installed but disabled, and every epoch
  // must be bit-for-bit identical to the clean service.
  with_model.set_telemetry_corruption(eva::TelemetryCorruptionOptions{});
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto a = plain.run_epoch(oracle_a);
    const auto b = with_model.run_epoch(oracle_b);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    ASSERT_EQ(a.config.size(), b.config.size());
    for (std::size_t i = 0; i < a.config.size(); ++i) {
      EXPECT_EQ(a.config[i].resolution, b.config[i].resolution);
      EXPECT_EQ(a.config[i].fps, b.config[i].fps);
    }
    EXPECT_EQ(a.schedule.assignment, b.schedule.assignment);
    EXPECT_EQ(a.schedule.phase, b.schedule.phase);
    EXPECT_EQ(a.sim.mean_latency, b.sim.mean_latency);  // bit-for-bit
    EXPECT_EQ(a.sim.max_jitter, b.sim.max_jitter);
    // Clean epochs have a clean bill of health.
    EXPECT_EQ(b.health.learning.samples_rejected, 0u);
    EXPECT_EQ(b.health.learning.samples_repaired, 0u);
    EXPECT_EQ(b.health.learning.outliers_downweighted, 0u);
    EXPECT_EQ(b.health.learning.iteration_failures, 0u);
    EXPECT_EQ(b.health.learning.watchdog_fires, 0u);
    EXPECT_FALSE(b.health.learning.heuristic_fallback);
    EXPECT_FALSE(b.health.optimizer_error);
    EXPECT_FALSE(b.health.repair_error);
    EXPECT_TRUE(b.health.error_message.empty());
  }
}

TEST(ServiceHealth, InfeasibleEpochZeroDegradesInsteadOfThrowing) {
  // A workload so heavy that epoch 0 cannot even anchor the learning
  // stack: with no last-known-good decision to fall back to, the epoch
  // must still return (infeasible, error recorded) rather than throw.
  eva::Workload monster = eva::make_workload(4, 3, 403);
  for (auto& clip : monster.clips) {
    clip = eva::ClipProfile::scaled_load(clip, 40.0);
  }
  SchedulingService service(monster, tiny_service(23));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto report = service.run_epoch(oracle);
  EXPECT_FALSE(report.feasible);
  EXPECT_FALSE(report.fallback);
  EXPECT_TRUE(report.health.optimizer_error);
  EXPECT_FALSE(report.health.error_message.empty());
  EXPECT_FALSE(service.has_last_good());
}

TEST(ServiceHealth, WatchdogBreachFallsBackToHeuristicRecommendation) {
  // An epoch deadline far below the BO loop's cost: the watchdog fires
  // before any Phase-3 observation lands, and the scheduler still returns
  // a feasible recommendation scored on the models' point estimates.
  PamoOptions options;
  options.init_profiles = 32;
  options.init_observations = 3;
  options.mc_samples = 12;
  options.batch_size = 2;
  options.max_iters = 3;
  options.pool.num_quasi_random = 32;
  options.max_pool_feasible = 32;
  options.gp.mle_restarts = 1;
  options.gp.mle_max_evals = 50;
  options.num_comparisons = 8;
  options.pref_pool_size = 14;
  options.watchdog.deadline_seconds = 1e-9;
  const eva::Workload w = eva::make_workload(4, 3, 404);
  PamoScheduler scheduler(w, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  EXPECT_EQ(result.health.watchdog_fires, 1u);
  EXPECT_TRUE(result.health.heuristic_fallback);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_FALSE(result.best_schedule.assignment.empty());
}

}  // namespace
}  // namespace pamo::core
