#include "sched/bnb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/constraints.hpp"
#include "sched/exact.hpp"

namespace pamo::sched {
namespace {

eva::Workload workload(std::size_t streams, std::size_t servers,
                       std::uint64_t seed) {
  return eva::make_workload(streams, servers, seed);
}

eva::JointConfig random_config(const eva::Workload& w, Rng& rng) {
  eva::JointConfig config;
  for (std::size_t i = 0; i < w.num_streams(); ++i) {
    config.push_back(w.space.sample(rng));
  }
  return config;
}

void expect_valid_schedule(const eva::Workload& w, const BnbResult& result) {
  ASSERT_TRUE(result.schedule.feasible);
  EXPECT_EQ(result.schedule.streams.size(), result.schedule.assignment.size());
  EXPECT_TRUE(const2_holds(result.schedule.streams, result.schedule.assignment,
                           w.num_servers(), w.space.clock()));
}

// The acceptance criterion of the engine: on instances the exhaustive
// search proves optimal, the best-first search must reach the same cost.
TEST(Bnb, OptimalCostMatchesExhaustiveSearch) {
  Rng rng(21);
  int compared = 0;
  for (int trial = 0; trial < 40 && compared < 12; ++trial) {
    const eva::Workload w = workload(3 + trial % 4, 2 + trial % 2, 210 + trial);
    const eva::JointConfig config = random_config(w, rng);
    const ExactResult exact = schedule_exact(w, config);
    const BnbResult bnb = schedule_bnb(w, config);
    EXPECT_NE(bnb.status, BnbStatus::kFeasibleBudget) << "budget too small";
    EXPECT_NE(bnb.status, BnbStatus::kUnknown) << "budget too small";
    if (exact.status == BnbStatus::kInfeasible) {
      EXPECT_EQ(bnb.status, BnbStatus::kInfeasible);
      continue;
    }
    if (exact.status != BnbStatus::kOptimal) continue;
    ASSERT_EQ(bnb.status, BnbStatus::kOptimal);
    expect_valid_schedule(w, bnb);
    EXPECT_NEAR(bnb.objective, exact.schedule->comm_cost, 1e-9);
    EXPECT_NEAR(bnb.lower_bound, bnb.objective, 1e-9);
    ++compared;
  }
  EXPECT_GT(compared, 5);
}

TEST(Bnb, NeverWorseThanGreedyAndBoundedBelow) {
  Rng rng(22);
  for (int trial = 0; trial < 15; ++trial) {
    const eva::Workload w = workload(5, 3, 220 + trial);
    const eva::JointConfig config = random_config(w, rng);
    const ScheduleResult greedy = schedule_zero_jitter(w, config);
    const BnbResult bnb = schedule_bnb(w, config);
    if (!greedy.feasible) continue;
    ASSERT_EQ(bnb.status, BnbStatus::kOptimal);
    EXPECT_LE(bnb.objective, greedy.comm_cost + 1e-12);
    EXPECT_LE(bnb.lower_bound, bnb.objective + 1e-12);
  }
}

TEST(Bnb, ProvenInfeasibleWhenOverloaded) {
  const eva::Workload w = workload(10, 2, 82);
  const eva::JointConfig config(10, {1920, 30});
  const BnbResult result = schedule_bnb(w, config);
  EXPECT_EQ(result.status, BnbStatus::kInfeasible);
  EXPECT_FALSE(result.schedule.feasible);
  EXPECT_TRUE(std::isinf(result.lower_bound));
}

// Regression target of the whole PR: a starved budget must surface as
// kUnknown (nothing found) or kFeasibleBudget (anytime answer) — never as
// a claim of infeasibility.
TEST(Bnb, BudgetExhaustionIsNeverReportedInfeasible) {
  const eva::Workload w = workload(8, 4, 87);
  const eva::JointConfig config(8, {720, 10});
  ASSERT_EQ(schedule_bnb(w, config).status, BnbStatus::kOptimal);

  BnbOptions starved;
  starved.max_nodes = 0;
  starved.seed_greedy = false;
  const BnbResult unknown = schedule_bnb(w, config, starved);
  EXPECT_EQ(unknown.status, BnbStatus::kUnknown);
  EXPECT_FALSE(unknown.schedule.feasible);
  EXPECT_EQ(unknown.nodes_expanded, 0u);

  starved.seed_greedy = true;
  const BnbResult anytime = schedule_bnb(w, config, starved);
  ASSERT_EQ(anytime.status, BnbStatus::kFeasibleBudget);
  expect_valid_schedule(w, anytime);
  // The anytime answer under a zero budget is exactly the greedy seed...
  const ScheduleResult greedy = schedule_zero_jitter(w, config);
  EXPECT_NEAR(anytime.objective, greedy.comm_cost, 1e-12);
  // ...with a certified optimality gap around it.
  EXPECT_LE(anytime.lower_bound, anytime.objective + 1e-12);
}

// Algorithm 1's load screen rejects a configuration when Σ p·f over the
// parent streams exceeds the server count. That must be a necessary
// condition for every zero-jitter placement, not just Algorithm 1's: on
// each such instance the exact engine proves infeasibility.
TEST(Bnb, LoadAboveServerCountIsProvenInfeasible) {
  Rng rng(23);
  int overloaded = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t streams = 2 + rng.uniform_index(5);
    const std::size_t servers = 1 + rng.uniform_index(3);
    const eva::Workload w = workload(streams, servers, 230 + trial);
    const eva::JointConfig config = random_config(w, rng);
    double load = 0.0;
    for (std::size_t i = 0; i < streams; ++i) {
      load += w.clips[i].proc_time(config[i].resolution) * config[i].fps;
    }
    if (load <= static_cast<double>(servers) * (1.0 + 1e-9)) continue;
    ++overloaded;
    EXPECT_EQ(schedule_bnb(w, config).status, BnbStatus::kInfeasible)
        << "trial " << trial << ": load " << load << " on " << servers
        << " server(s)";
  }
  EXPECT_GT(overloaded, 20);
}

TEST(Bnb, LowerBoundIsAdmissibleAtEveryBudget) {
  const eva::Workload w = workload(6, 3, 88);
  const eva::JointConfig config(6, {960, 15});
  const BnbResult proven = schedule_bnb(w, config);
  ASSERT_EQ(proven.status, BnbStatus::kOptimal);
  for (std::size_t budget : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                             std::size_t{64}, std::size_t{256}}) {
    BnbOptions options;
    options.max_nodes = budget;
    const BnbResult partial = schedule_bnb(w, config, options);
    EXPECT_NE(partial.status, BnbStatus::kInfeasible);
    EXPECT_NE(partial.status, BnbStatus::kUnknown);  // seeded: always anytime
    EXPECT_LE(partial.lower_bound, proven.objective + 1e-12)
        << "bound must never exceed the true optimum (budget " << budget
        << ")";
    EXPECT_GE(partial.objective, proven.objective - 1e-12);
  }
}

TEST(Bnb, WeakBoundModeReachesTheSameOptimum) {
  Rng rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    const eva::Workload w = workload(4, 3, 230 + trial);
    const eva::JointConfig config = random_config(w, rng);
    BnbOptions weak;
    weak.assignment_bound = false;
    const BnbResult strong = schedule_bnb(w, config);
    const BnbResult relaxed = schedule_bnb(w, config, weak);
    ASSERT_EQ(strong.status, relaxed.status);
    if (strong.status == BnbStatus::kOptimal) {
      EXPECT_NEAR(strong.objective, relaxed.objective, 1e-9);
    }
  }
}

TEST(Bnb, EmptyWorkloadIsTriviallyOptimal) {
  eva::Workload w = workload(4, 2, 89);
  w.clips.clear();
  const BnbResult result = schedule_bnb(w, {});
  EXPECT_EQ(result.status, BnbStatus::kOptimal);
  EXPECT_TRUE(result.schedule.streams.empty());
  EXPECT_NEAR(result.objective, 0.0, 1e-15);
}

// ---- Pinned repair entry point -----------------------------------------

TEST(BnbPinned, RepairsOrphansOptimallyWithSurvivorsPinned) {
  Rng rng(24);
  int repaired = 0;
  for (int trial = 0; trial < 20 && repaired < 6; ++trial) {
    const eva::Workload w = workload(5, 3, 240 + trial);
    const eva::JointConfig config = random_config(w, rng);
    const ScheduleResult before = schedule_zero_jitter(w, config);
    if (!before.feasible) continue;
    const std::size_t victim = before.assignment[0];
    std::vector<bool> usable(w.num_servers(), true);
    usable[victim] = false;

    const BnbResult result =
        reschedule_bnb_pinned(w, config, before, usable);
    if (result.status == BnbStatus::kInfeasible) continue;
    ASSERT_EQ(result.status, BnbStatus::kOptimal);
    expect_valid_schedule(w, result);
    // Survivors stayed pinned, orphans landed on usable servers only. The
    // stream *order* is not part of the contract (the greedy incumbent and
    // a search leaf serialize differently), so compare (parent, server)
    // multisets: every pinned pair of `before` must survive verbatim.
    ASSERT_EQ(result.schedule.streams.size(), before.streams.size());
    std::multiset<std::pair<std::size_t, std::size_t>> repaired_pairs;
    for (std::size_t i = 0; i < result.schedule.streams.size(); ++i) {
      repaired_pairs.emplace(result.schedule.streams[i].parent,
                             result.schedule.assignment[i]);
    }
    for (std::size_t i = 0; i < before.streams.size(); ++i) {
      if (!usable[before.assignment[i]]) continue;
      const auto pinned =
          std::make_pair(before.streams[i].parent, before.assignment[i]);
      const auto it = repaired_pairs.find(pinned);
      ASSERT_NE(it, repaired_pairs.end())
          << "pinned sub-stream of parent " << pinned.first
          << " left server " << pinned.second;
      repaired_pairs.erase(it);
    }
    for (std::size_t server : result.schedule.assignment) {
      EXPECT_TRUE(usable[server]);
    }
    // Optimal pinned repair can never cost more than the greedy one.
    const ScheduleResult greedy =
        reschedule_pinned(w, config, before, usable);
    if (greedy.feasible) {
      EXPECT_LE(result.objective, greedy.comm_cost + 1e-12);
    }
    ++repaired;
  }
  EXPECT_GT(repaired, 0);
}

TEST(BnbPinned, NoOrphansIsReturnedVerbatimAsOptimal) {
  const eva::Workload w = workload(4, 3, 91);
  const eva::JointConfig config(4, {720, 10});
  const ScheduleResult before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);
  const std::vector<bool> usable(w.num_servers(), true);
  const BnbResult result = reschedule_bnb_pinned(w, config, before, usable);
  EXPECT_EQ(result.status, BnbStatus::kOptimal);
  EXPECT_EQ(result.nodes_expanded, 0u);
  EXPECT_EQ(result.schedule.assignment, before.assignment);
  EXPECT_NEAR(result.objective, before.comm_cost, 1e-9);
}

TEST(BnbPinned, ImpossibleHeadroomIsProvenInfeasible) {
  const eva::Workload w = workload(4, 2, 92);
  const eva::JointConfig config(4, {720, 10});
  const ScheduleResult before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);
  const std::vector<bool> usable(w.num_servers(), true);
  // A 1e6x slowdown makes even the surviving groups violate Theorem 1:
  // that is a proof that no pinned repair exists, not a budget artifact.
  const BnbResult result =
      reschedule_bnb_pinned(w, config, before, usable, /*proc_headroom=*/1e6);
  EXPECT_EQ(result.status, BnbStatus::kInfeasible);
}

TEST(BnbPinned, AllServersDownIsProvenInfeasible) {
  const eva::Workload w = workload(3, 2, 93);
  const eva::JointConfig config(3, {720, 10});
  const ScheduleResult before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);
  const std::vector<bool> usable(w.num_servers(), false);
  const BnbResult result = reschedule_bnb_pinned(w, config, before, usable);
  EXPECT_EQ(result.status, BnbStatus::kInfeasible);
}

TEST(BnbPinned, RejectsKnobAlternativesForPinnedParents) {
  // The greedy scheduler tends to pack everything onto the best uplink, so
  // build a two-server placement by hand: parent 0 on server 0, the rest on
  // server 1. Killing server 0 then leaves surviving (pinned) parents, and
  // the contract — pinned parents cannot take knob alternatives — bites.
  const eva::Workload w = workload(3, 2, 94);
  const eva::JointConfig config(3, {720, 10});
  std::vector<PeriodicStream> streams = split_streams(w, config);
  std::vector<std::size_t> assignment;
  assignment.reserve(streams.size());
  for (const PeriodicStream& s : streams) {
    assignment.push_back(s.parent == 0 ? 0 : 1);
  }
  const ScheduleResult before =
      assemble_zero_jitter(w, std::move(streams), std::move(assignment));
  ASSERT_TRUE(before.feasible);
  std::vector<bool> usable(w.num_servers(), true);
  usable[0] = false;
  BnbOptions options;
  options.knob_alternatives.assign(w.num_streams(), {{480, 5}});
  EXPECT_THROW(
      reschedule_bnb_pinned(w, config, before, usable, 1.0, options), Error);
}

// ---- Joint (server, knob) search ---------------------------------------

TEST(BnbKnobs, StepsDownOnlyWhenPlacementNeedsIt) {
  // Overload 6 heavy streams onto 2 servers: nominal is infeasible, but
  // degraded knobs fit. The solver must find a feasible mix and prefer
  // fewer degrade steps (the penalty is lexicographically dominant).
  const eva::Workload w = workload(6, 2, 95);
  const eva::JointConfig nominal(6, {1920, 30});
  ASSERT_EQ(schedule_bnb(w, nominal).status, BnbStatus::kInfeasible);

  BnbOptions options;
  options.degrade_penalty = 1.0;  // >> any comm cost in seconds
  options.knob_alternatives.assign(6, {{960, 15}, {480, 5}});
  const BnbResult result = schedule_bnb(w, nominal, options);
  ASSERT_EQ(result.status, BnbStatus::kOptimal);
  expect_valid_schedule(w, result);
  // The chosen config differs from nominal somewhere, and the objective
  // decomposes into comm cost + penalty * steps taken.
  std::size_t steps = 0;
  for (std::size_t p = 0; p < 6; ++p) {
    if (result.config[p] == nominal[p]) continue;
    if (result.config[p] == eva::StreamConfig{960, 15}) steps += 1;
    if (result.config[p] == eva::StreamConfig{480, 5}) steps += 2;
  }
  EXPECT_GT(steps, 0u);
  EXPECT_NEAR(result.objective,
              result.schedule.comm_cost + static_cast<double>(steps), 1e-9);

  // A roomier cluster with the same knob menu must not degrade at all.
  const eva::Workload roomy = workload(3, 3, 96);
  const eva::JointConfig light(3, {720, 10});
  BnbOptions menu;
  menu.degrade_penalty = 1.0;
  menu.knob_alternatives.assign(3, {{480, 5}});
  const BnbResult untouched = schedule_bnb(roomy, light, menu);
  ASSERT_EQ(untouched.status, BnbStatus::kOptimal);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(untouched.config[p], light[p]);
  }
  EXPECT_NEAR(untouched.objective, untouched.schedule.comm_cost, 1e-12);
}

}  // namespace
}  // namespace pamo::sched
