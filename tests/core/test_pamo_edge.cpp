// Failure-injection and edge-case tests for the PaMO scheduler.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/evaluation.hpp"
#include "core/pamo.hpp"

namespace pamo::core {
namespace {

PamoOptions tiny_options(std::uint64_t seed) {
  PamoOptions options;
  options.init_profiles = 30;
  options.num_comparisons = 6;
  options.pref_pool_size = 10;
  options.init_observations = 3;
  options.mc_samples = 12;
  options.batch_size = 2;
  options.max_iters = 3;
  options.pool.num_quasi_random = 32;
  options.pool.mutations_per_incumbent = 6;
  options.max_pool_feasible = 32;
  options.gp.mle_restarts = 1;
  options.gp.mle_max_evals = 50;
  options.seed = seed;
  return options;
}

TEST(PamoEdge, HopelesslyOverloadedWorkloadFailsGracefully) {
  // 40 streams on one server: even all-minimum configurations exceed the
  // zero-jitter capacity; PaMO must report infeasibility, not crash.
  const eva::Workload w = eva::make_workload(40, 1, 101);
  eva::JointConfig minimum(40, {w.space.resolutions().front(),
                               w.space.fps_knobs().front()});
  ASSERT_FALSE(sched::schedule_zero_jitter(w, minimum).feasible)
      << "premise: the workload must be hopeless";
  PamoScheduler scheduler(w, tiny_options(1));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  // Either a clean infeasible result or a precondition error is
  // acceptable; a crash or a bogus "feasible" result is not.
  try {
    const PamoResult result = scheduler.run(oracle);
    EXPECT_FALSE(result.feasible);
  } catch (const Error&) {
    SUCCEED();
  }
}

TEST(PamoEdge, SingleStreamSingleServer) {
  const eva::Workload w = eva::make_workload(1, 1, 102);
  PamoScheduler scheduler(w, tiny_options(2));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.best_config.size(), 1u);
}

TEST(PamoEdge, MoreServersThanStreams) {
  const eva::Workload w = eva::make_workload(3, 8, 103);
  PamoScheduler scheduler(w, tiny_options(3));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
}

TEST(PamoEdge, NoisyOracleStillProducesReasonableDecision) {
  const eva::Workload w = eva::make_workload(5, 4, 104);
  const pref::BenefitFunction benefit({3, 1, 1, 1, 1});
  pref::OracleOptions noisy;
  noisy.response_noise = 0.4;
  pref::PreferenceOracle oracle(benefit, noisy, 105);
  PamoOptions options = tiny_options(4);
  options.num_comparisons = 12;
  PamoScheduler scheduler(w, options);
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
  const eva::OutcomeNormalizer norm = eva::OutcomeNormalizer::for_workload(w);
  const auto score = evaluate_solution(w, result.best_config,
                                       result.best_schedule, norm, benefit);
  ASSERT_TRUE(score.has_value());
  // Better than the floor by a clear margin.
  EXPECT_GT(score->benefit, -0.5 * benefit.weight_sum());
}

TEST(PamoEdge, ZeroWeightObjectivesAreIgnorable) {
  const eva::Workload w = eva::make_workload(4, 3, 106);
  // Only accuracy matters.
  const pref::BenefitFunction benefit({0, 5, 0, 0, 0});
  PamoOptions options = tiny_options(5);
  options.use_true_preference = true;
  options.max_iters = 5;
  PamoScheduler scheduler(w, options);
  pref::PreferenceOracle oracle(benefit);
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
  // The decision should lean towards high accuracy configurations.
  double mean_res = 0.0;
  for (const auto& c : result.best_config) mean_res += c.resolution;
  mean_res /= static_cast<double>(result.best_config.size());
  EXPECT_GT(mean_res, 700.0);
}

TEST(PamoEdge, BatchLargerThanFeasiblePool) {
  const eva::Workload w = eva::make_workload(3, 2, 107);
  PamoOptions options = tiny_options(6);
  options.batch_size = 64;  // far more than the pool can supply
  options.max_pool_feasible = 16;
  PamoScheduler scheduler(w, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  EXPECT_TRUE(result.feasible);
}

TEST(PamoEdge, LearnInLoopOffStillWorks) {
  const eva::Workload w = eva::make_workload(4, 3, 108);
  PamoOptions options = tiny_options(7);
  options.learn_in_loop = false;
  PamoScheduler scheduler(w, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
  // Exactly the pre-loop comparisons were asked.
  EXPECT_EQ(result.oracle_queries, options.num_comparisons);
}

TEST(PamoEdge, BenefitTraceIsRecorded) {
  const eva::Workload w = eva::make_workload(4, 3, 109);
  PamoOptions options = tiny_options(8);
  options.delta = 0.0;  // never converge early
  options.max_iters = 4;
  PamoScheduler scheduler(w, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.benefit_trace.size(), result.iterations);
}

// With zero MC scenarios every BO iteration throws pamo::Error (the
// acquisition rejects an empty scenario matrix), while Phase 1, Phase 2
// and the initial observations still succeed. That drives the watchdog's
// failure budget through PamoScheduler::run itself.
PamoOptions always_failing_iterations() {
  PamoOptions options = tiny_options(9);
  options.mc_samples = 0;
  options.max_iters = 5;
  return options;
}

TEST(PamoEdge, IterationFailurePropagatesWithoutWatchdog) {
  const eva::Workload w = eva::make_workload(4, 2, 7);
  PamoScheduler scheduler(w, always_failing_iterations());
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  EXPECT_THROW(scheduler.run(oracle), Error);
}

TEST(PamoEdge, WatchdogStopsLoopWhenFailureBudgetIsSpent) {
  const eva::Workload w = eva::make_workload(4, 2, 7);
  PamoOptions options = always_failing_iterations();
  options.watchdog.max_failures = 2;
  PamoScheduler scheduler(w, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  // Best-so-far from the initial observations, not a crash.
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.health.iteration_failures, 2u);
  EXPECT_EQ(result.health.watchdog_fires, 1u);
  EXPECT_EQ(result.iterations, 2u);  // the breach stopped the loop early
  EXPECT_TRUE(result.benefit_trace.empty());
}

TEST(PamoEdge, WatchdogAbsorbsFailuresWithinBudget) {
  const eva::Workload w = eva::make_workload(4, 2, 7);
  PamoOptions options = always_failing_iterations();
  options.watchdog.max_failures = 100;
  PamoScheduler scheduler(w, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.health.iteration_failures, 5u);
  EXPECT_EQ(result.health.watchdog_fires, 0u);
  EXPECT_EQ(result.iterations, 5u);
  EXPECT_TRUE(result.benefit_trace.empty());
}

}  // namespace
}  // namespace pamo::core
