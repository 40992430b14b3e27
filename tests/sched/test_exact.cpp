#include "sched/exact.hpp"

#include <gtest/gtest.h>

#include "sched/constraints.hpp"
#include "sim/simulator.hpp"

namespace pamo::sched {
namespace {

eva::Workload workload(std::size_t streams, std::size_t servers,
                       std::uint64_t seed) {
  return eva::make_workload(streams, servers, seed);
}

/// A schedule exists: found and proven optimal, or found before the node
/// budget ran out. kUnknown is neither proof of feasibility nor of
/// infeasibility.
bool exact_feasible(BnbStatus status) {
  return status == BnbStatus::kOptimal || status == BnbStatus::kFeasibleBudget;
}

TEST(ExactSchedule, FindsFeasibleLowLoadSchedule) {
  const eva::Workload w = workload(5, 3, 81);
  eva::JointConfig config(5, {720, 10});
  const ExactResult result = schedule_exact(w, config);
  EXPECT_EQ(result.status, BnbStatus::kOptimal);
  ASSERT_TRUE(result.schedule.has_value());
  EXPECT_TRUE(result.schedule->feasible);
  EXPECT_TRUE(const2_holds(result.schedule->streams,
                           result.schedule->assignment, w.num_servers(),
                           w.space.clock()));
}

TEST(ExactSchedule, InfeasibleWhenOverloaded) {
  const eva::Workload w = workload(10, 2, 82);
  eva::JointConfig config(10, {1920, 30});
  const ExactResult result = schedule_exact(w, config);
  EXPECT_EQ(result.status, BnbStatus::kInfeasible);
  EXPECT_FALSE(result.schedule.has_value());
}

TEST(ExactSchedule, ExactCostNeverWorseThanHeuristic) {
  Rng rng(83);
  int compared = 0;
  for (int trial = 0; trial < 60 && compared < 15; ++trial) {
    const eva::Workload w = workload(6, 3, 830 + trial);
    eva::JointConfig config;
    for (std::size_t i = 0; i < 6; ++i) {
      config.push_back({w.space.resolutions()[rng.uniform_index(4)],
                        w.space.fps_knobs()[rng.uniform_index(5)]});
    }
    const ScheduleResult heuristic = schedule_zero_jitter(w, config);
    if (!heuristic.feasible) continue;
    const ExactResult exact = schedule_exact(w, config);
    ASSERT_EQ(exact.status, BnbStatus::kOptimal)
        << "heuristic feasible but exact search found nothing";
    EXPECT_LE(exact.schedule->comm_cost, heuristic.comm_cost + 1e-12);
    ++compared;
  }
  EXPECT_GT(compared, 5);
}

TEST(ExactSchedule, HeuristicFeasibleImpliesExactFeasible) {
  Rng rng(84);
  for (int trial = 0; trial < 40; ++trial) {
    const eva::Workload w = workload(5, 3, 840 + trial);
    eva::JointConfig config;
    for (std::size_t i = 0; i < 5; ++i) config.push_back(w.space.sample(rng));
    const bool heuristic = schedule_zero_jitter(w, config).feasible;
    if (!heuristic) continue;
    EXPECT_TRUE(exact_feasible(schedule_exact(w, config).status));
  }
}

TEST(ExactSchedule, CanBeatHeuristicFeasibility) {
  // The exact search uses the gcd condition directly, which admits
  // groupings (e.g. co-prime periods with tiny processing times) that
  // Algorithm 1's Theorem-3 test rejects. Find at least one such instance
  // over a modest sweep — this is the documented gap of the heuristic.
  Rng rng(85);
  int heuristic_only_failures = 0;
  for (int trial = 0; trial < 200 && heuristic_only_failures == 0; ++trial) {
    const eva::Workload w = workload(4, 2, 850 + trial);
    eva::JointConfig config;
    for (std::size_t i = 0; i < 4; ++i) {
      config.push_back({w.space.resolutions()[rng.uniform_index(2)],
                        w.space.fps_knobs()[rng.uniform_index(5)]});
    }
    const bool heuristic = schedule_zero_jitter(w, config).feasible;
    const BnbStatus exact = schedule_exact(w, config).status;
    if (exact == BnbStatus::kUnknown) continue;
    if (exact_feasible(exact) && !heuristic) ++heuristic_only_failures;
    // The converse must never happen.
    ASSERT_FALSE(heuristic && !exact_feasible(exact));
  }
  EXPECT_GT(heuristic_only_failures, 0)
      << "expected at least one instance where only the exact search "
         "succeeds";
}

TEST(ExactSchedule, SimulatesWithZeroJitter) {
  const eva::Workload w = workload(6, 3, 86);
  eva::JointConfig config(6, {960, 15});
  const ExactResult result = schedule_exact(w, config);
  if (!result.schedule.has_value()) GTEST_SKIP() << "instance infeasible";
  const sim::SimReport report = sim::simulate(w, *result.schedule);
  EXPECT_NEAR(report.max_jitter, 0.0, 1e-9);
  EXPECT_NEAR(report.total_queue_delay, 0.0, 1e-9);
}

// Regression: a starved node budget must read as "unknown", never as a
// proof of infeasibility. This instance is feasible (see below), so any
// kInfeasible answer under a tiny budget would be an outright lie.
TEST(ExactSchedule, NodeBudgetReportsUnknownNotInfeasible) {
  const eva::Workload w = workload(8, 4, 87);
  eva::JointConfig config(8, {720, 10});
  ASSERT_TRUE(exact_feasible(schedule_exact(w, config).status));

  ExactOptions options;
  options.max_nodes = 3;  // absurdly small
  const ExactResult starved = schedule_exact(w, config, options);
  EXPECT_EQ(starved.status, BnbStatus::kUnknown);
  EXPECT_FALSE(starved.schedule.has_value());
}

// Regression: a budget large enough to find *a* schedule but not to prove
// optimality must come back as kFeasibleBudget — the old API silently
// passed the unproven best-found off as the optimum.
TEST(ExactSchedule, MidBudgetReportsFeasibleBudget) {
  const eva::Workload w = workload(8, 4, 87);
  eva::JointConfig config(8, {720, 10});
  const ExactResult proven = schedule_exact(w, config);
  ASSERT_EQ(proven.status, BnbStatus::kOptimal);

  bool saw_feasible_budget = false;
  for (std::size_t budget = 16; budget <= 4096 && !saw_feasible_budget;
       budget *= 2) {
    ExactOptions options;
    options.max_nodes = budget;
    const ExactResult partial = schedule_exact(w, config, options);
    EXPECT_NE(partial.status, BnbStatus::kInfeasible);
    if (partial.status == BnbStatus::kFeasibleBudget) {
      saw_feasible_budget = true;
      ASSERT_TRUE(partial.schedule.has_value());
      EXPECT_TRUE(partial.schedule->feasible);
      // Anytime contract: the partial answer is a real schedule, at worst
      // costlier than the proven optimum.
      EXPECT_GE(partial.schedule->comm_cost, proven.schedule->comm_cost - 1e-12);
    }
  }
  EXPECT_TRUE(saw_feasible_budget)
      << "no budget in the sweep caught the found-but-unproven window";
}

}  // namespace
}  // namespace pamo::sched
