#include "core/pamo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/evaluation.hpp"

namespace pamo::core {
namespace {

/// Small, fast PaMO settings for tests.
PamoOptions fast_options(std::uint64_t seed = 42) {
  PamoOptions options;
  options.init_profiles = 40;
  options.num_comparisons = 10;
  options.pref_pool_size = 16;
  options.init_observations = 4;
  options.mc_samples = 16;
  options.batch_size = 2;
  options.max_iters = 4;
  options.pool.num_quasi_random = 48;
  options.pool.mutations_per_incumbent = 8;
  options.max_pool_feasible = 48;
  options.gp.mle_restarts = 1;
  options.gp.mle_max_evals = 60;
  options.seed = seed;
  return options;
}

TEST(Pamo, CandidatePoolSkipsRepeatedAndObservedConfigurations) {
  const eva::Workload w = eva::make_workload(5, 4, 42);
  Rng rng(3);
  std::vector<eva::JointConfig> distinct;
  for (std::size_t attempt = 0; attempt < 1000 && distinct.size() < 3;
       ++attempt) {
    eva::JointConfig config(w.num_streams());
    for (auto& c : config) c = w.space.sample(rng);
    if (sched::schedule_zero_jitter(w, config).feasible &&
        std::find(distinct.begin(), distinct.end(), config) == distinct.end()) {
      distinct.push_back(std::move(config));
    }
  }
  ASSERT_EQ(distinct.size(), 3u);
  const eva::JointConfig& a = distinct[0];
  const eva::JointConfig& b = distinct[1];
  const eva::JointConfig& c = distinct[2];
  // One unmoved mutation per incumbent draws the incumbents themselves:
  // a b a c b, with c already observed: only the first a and b survive,
  // in draw order, each with its Algorithm 1 schedule.
  const std::vector<eva::JointConfig> raw = {a, b, a, c, b};
  PoolOptions options;
  options.num_quasi_random = 0;
  options.mutations_per_incumbent = 1;
  options.mutation_sigma = 0.0;
  const CandidatePool pool = draw_feasible(w, raw, {c}, options, 10, rng);
  ASSERT_EQ(pool.configs.size(), 2u);
  EXPECT_EQ(pool.configs[0], a);
  EXPECT_EQ(pool.configs[1], b);
  ASSERT_EQ(pool.schedules.size(), 2u);
  EXPECT_TRUE(pool.schedules[0].feasible);
  EXPECT_TRUE(pool.schedules[1].feasible);
  // The cap counts kept candidates, not skipped ones.
  EXPECT_EQ(draw_feasible(w, raw, {a}, options, 2, rng).configs,
            (std::vector<eva::JointConfig>{b, c}));
}

TEST(Pamo, OnlyOneFittingConfiguration) {
  // 26 streams on one server: the lightest configuration fits, and raising
  // any one knob of any stream breaks the load bound, which only grows
  // with the knobs. So nothing else fits.
  const eva::Workload w = eva::make_fleet_workload(26, 1, 7);
  const auto& resolutions = w.space.resolutions();
  const auto& fps_knobs = w.space.fps_knobs();
  const eva::JointConfig lightest(w.num_streams(),
                                  {resolutions[0], fps_knobs[0]});
  ASSERT_TRUE(sched::schedule_zero_jitter(w, lightest).feasible);
  for (std::size_t i = 0; i < lightest.size(); ++i) {
    eva::JointConfig heavier = lightest;
    heavier[i].resolution = resolutions[1];
    ASSERT_TRUE(sched::exceeds_load_bound(w, heavier));
    heavier = lightest;
    heavier[i].fps = fps_knobs[1];
    ASSERT_TRUE(sched::exceeds_load_bound(w, heavier));
  }
  Rng rng(7);
  EXPECT_EQ(draw_feasible(w, {}, {}, PoolOptions{}, 32, rng).configs,
            std::vector<eva::JointConfig>{lightest});

  // PaMO cannot show the decision-maker two outcomes to compare.
  PamoScheduler pamo(w, fast_options());
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  try {
    pamo.run(oracle);
    ADD_FAILURE() << "a one-configuration preference pool must not run";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "could not build a preference candidate pool"),
              std::string::npos)
        << e.what();
  }

  // PaMO+ needs no preference pool and returns the one configuration.
  PamoOptions plus_options = fast_options();
  plus_options.use_true_preference = true;
  PamoScheduler plus(w, plus_options);
  const PamoResult result = plus.run(oracle);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.best_config, lightest);
  EXPECT_TRUE(result.best_schedule.feasible);
}

TEST(Pamo, RunsEndToEndAndReturnsFeasibleSchedule) {
  const eva::Workload w = eva::make_workload(5, 4, 42);
  PamoScheduler scheduler(w, fast_options());
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.best_config.size(), 5u);
  EXPECT_TRUE(result.best_schedule.feasible);
  EXPECT_GE(result.iterations, 1u);
  EXPECT_GT(result.oracle_queries, 0u);
  EXPECT_FALSE(result.benefit_trace.empty());
}

TEST(Pamo, PamoPlusSkipsOracleQueries) {
  const eva::Workload w = eva::make_workload(5, 4, 42);
  PamoOptions options = fast_options();
  options.use_true_preference = true;
  PamoScheduler scheduler(w, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.oracle_queries, 0u);
}

TEST(Pamo, BeatsRandomConfigurationOnAverage) {
  const eva::Workload w = eva::make_workload(6, 4, 7);
  const eva::OutcomeNormalizer normalizer =
      eva::OutcomeNormalizer::for_workload(w);
  const pref::BenefitFunction benefit = pref::BenefitFunction::uniform();

  PamoOptions options = fast_options(7);
  options.use_true_preference = true;  // isolate the BO component
  options.max_iters = 6;
  PamoScheduler scheduler(w, options);
  pref::PreferenceOracle oracle(benefit);
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
  const auto pamo_score = evaluate_solution(
      w, result.best_config, result.best_schedule, normalizer, benefit);
  ASSERT_TRUE(pamo_score.has_value());

  // Average benefit of random feasible configurations.
  Rng rng(99);
  double random_total = 0.0;
  int random_count = 0;
  while (random_count < 20) {
    eva::JointConfig config;
    for (std::size_t i = 0; i < w.num_streams(); ++i) {
      config.push_back(w.space.sample(rng));
    }
    const auto schedule = sched::schedule_zero_jitter(w, config);
    if (!schedule.feasible) continue;
    const auto score =
        evaluate_solution(w, config, schedule, normalizer, benefit);
    random_total += score->benefit;
    ++random_count;
  }
  EXPECT_GT(pamo_score->benefit, random_total / random_count);
}

TEST(Pamo, DeterministicPerSeed) {
  const eva::Workload w = eva::make_workload(4, 3, 5);
  pref::PreferenceOracle oracle1(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle2(pref::BenefitFunction::uniform());
  PamoScheduler s1(w, fast_options(11));
  PamoScheduler s2(w, fast_options(11));
  const PamoResult r1 = s1.run(oracle1);
  const PamoResult r2 = s2.run(oracle2);
  ASSERT_TRUE(r1.feasible && r2.feasible);
  EXPECT_EQ(r1.best_config, r2.best_config);
  EXPECT_EQ(r1.iterations, r2.iterations);
}

TEST(Pamo, ConvergenceThresholdStopsEarly) {
  const eva::Workload w = eva::make_workload(4, 3, 9);
  PamoOptions loose = fast_options(13);
  loose.delta = 100.0;  // any change is "converged"
  loose.max_iters = 8;
  PamoScheduler scheduler(w, loose);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const PamoResult result = scheduler.run(oracle);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.iterations, 2u);
}

TEST(Pamo, RecommendationRespectsLearnedPreference) {
  // With an extreme energy preference, PaMO's chosen configuration should
  // consume less power than with an extreme accuracy preference.
  const eva::Workload w = eva::make_workload(5, 4, 21);
  auto run_with = [&](std::array<double, 5> weights) {
    PamoOptions options = fast_options(21);
    options.use_true_preference = true;  // test the optimizer, not learning
    options.max_iters = 6;
    PamoScheduler scheduler(w, options);
    pref::PreferenceOracle oracle(pref::BenefitFunction{weights});
    return scheduler.run(oracle);
  };
  const PamoResult energy_focused = run_with({0.2, 0.2, 0.2, 0.2, 8.0});
  const PamoResult accuracy_focused = run_with({0.2, 8.0, 0.2, 0.2, 0.2});
  ASSERT_TRUE(energy_focused.feasible && accuracy_focused.feasible);
  auto total_power = [&](const PamoResult& r) {
    double sum = 0.0;
    for (std::size_t i = 0; i < w.num_streams(); ++i) {
      sum += w.clips[i].power_watts(r.best_config[i].resolution,
                                    r.best_config[i].fps);
    }
    return sum;
  };
  EXPECT_LT(total_power(energy_focused), total_power(accuracy_focused));
}

}  // namespace
}  // namespace pamo::core
