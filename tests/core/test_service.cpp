#include "core/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/error.hpp"
#include "core/evaluation.hpp"
#include "eva/dynamics.hpp"
#include "support/service_fixtures.hpp"

namespace pamo::core {
namespace {

TEST(Service, FirstEpochInterviewsLaterEpochsDoNot) {
  SchedulingService service(eva::make_workload(5, 4, 201), tiny_service(1));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto first = service.run_epoch(oracle);
  ASSERT_TRUE(first.feasible);
  // Epoch 0 pays the interview (initial comparisons + in-loop refreshes).
  EXPECT_GE(first.oracle_queries, 8u);
  const auto second = service.run_epoch(oracle);
  ASSERT_TRUE(second.feasible);
  // Steady-state epochs only pay the per-iteration refresh queries.
  EXPECT_LT(second.oracle_queries, first.oracle_queries);
  EXPECT_LE(second.oracle_queries, 4u);
  EXPECT_EQ(service.epochs_run(), 2u);
}

TEST(Service, DecisionsAreZeroJitterInSimulation) {
  SchedulingService service(eva::make_workload(5, 4, 202), tiny_service(2));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto report = service.run_epoch(oracle);
    ASSERT_TRUE(report.feasible) << "epoch " << epoch;
    EXPECT_NEAR(report.sim.max_jitter, 0.0, 1e-9) << "epoch " << epoch;
    EXPECT_NEAR(report.sim.total_queue_delay, 0.0, 1e-9)
        << "epoch " << epoch;
  }
}

TEST(Service, AdaptsToWorkloadDrift) {
  const eva::Workload base = eva::make_workload(6, 4, 203);
  SchedulingService service(base, tiny_service(3));
  const pref::BenefitFunction benefit({1, 3, 1, 1, 1});
  pref::PreferenceOracle oracle(benefit);
  const auto first = service.run_epoch(oracle);
  ASSERT_TRUE(first.feasible);

  // Strong load surge: the old decision may no longer even be feasible,
  // but the service re-optimizes and still produces a valid schedule.
  service.set_workload(eva::drift_workload(base, 999, 0.8));
  const auto second = service.run_epoch(oracle);
  ASSERT_TRUE(second.feasible);
  EXPECT_NEAR(second.sim.max_jitter, 0.0, 1e-9);
}

TEST(Service, LearnerPersistsAndGrows) {
  SchedulingService service(eva::make_workload(4, 3, 204), tiny_service(4));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  EXPECT_EQ(service.learner(), nullptr);  // lazy: created on first epoch
  (void)service.run_epoch(oracle);
  ASSERT_NE(service.learner(), nullptr);
  const std::size_t after_first = service.learner()->num_comparisons();
  (void)service.run_epoch(oracle);
  EXPECT_GE(service.learner()->num_comparisons(), after_first);
  // The model holds exactly the compared points, not the whole pool.
  const obs::json::Value snap = service.learner()->snapshot();
  std::set<std::uint64_t> compared;
  for (const auto& pair : snap.at("pairs").items()) {
    for (const auto& index : pair.items()) compared.insert(index.as_uint());
  }
  EXPECT_EQ(service.learner()->model().num_points(), compared.size());
  EXPECT_LT(compared.size(), service.learner()->pool().size());
}

TEST(Service, TruePreferenceModeSkipsOracleEntirely) {
  ServiceOptions options = tiny_service(5);
  options.initial.use_true_preference = true;
  options.steady.use_true_preference = true;
  SchedulingService service(eva::make_workload(4, 3, 205), options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto report = service.run_epoch(oracle);
  ASSERT_TRUE(report.feasible);
  EXPECT_EQ(report.oracle_queries, 0u);
  EXPECT_EQ(service.learner(), nullptr);
}

TEST(Service, RejectsEmptyWorkload) {
  eva::Workload empty;
  EXPECT_THROW(SchedulingService(empty, tiny_service(6)), Error);
  SchedulingService service(eva::make_workload(3, 2, 206), tiny_service(7));
  EXPECT_THROW(service.set_workload(empty), Error);
}

TEST(Service, SteadyStateQualityComparableToFresh) {
  // The shared-learner steady-state path should not be much worse than a
  // from-scratch optimization on the same (drifted) workload.
  const eva::Workload base = eva::make_workload(5, 4, 207);
  const pref::BenefitFunction benefit = pref::BenefitFunction::uniform();

  SchedulingService service(base, tiny_service(8));
  pref::PreferenceOracle oracle(benefit);
  (void)service.run_epoch(oracle);
  const eva::Workload drifted = eva::drift_workload(base, 500, 0.3);
  service.set_workload(drifted);
  const auto steady = service.run_epoch(oracle);
  ASSERT_TRUE(steady.feasible);

  const eva::OutcomeNormalizer norm =
      eva::OutcomeNormalizer::for_workload(drifted);
  const auto steady_score = evaluate_solution(
      drifted, steady.config, steady.schedule, norm, benefit);
  ASSERT_TRUE(steady_score.has_value());

  // Fresh full optimization for comparison.
  PamoOptions fresh = tiny_service(8).initial;
  fresh.seed = 42;
  PamoScheduler scheduler(drifted, fresh);
  pref::PreferenceOracle oracle2(benefit);
  const auto fresh_result = scheduler.run(oracle2);
  ASSERT_TRUE(fresh_result.feasible);
  const auto fresh_score =
      evaluate_solution(drifted, fresh_result.best_config,
                        fresh_result.best_schedule, norm, benefit);
  // Allow a modest gap; the steady path used far fewer oracle queries.
  EXPECT_GT(steady_score->benefit, fresh_score->benefit - 0.8);
}

}  // namespace
}  // namespace pamo::core
