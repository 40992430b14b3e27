#include "sched/bnb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "sched/constraints.hpp"
#include "sim/simulator.hpp"

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

/// Brute-force placement oracle: tries every usable server for every
/// stream in `movable` (the `fixed` streams keep `fixed_servers`), keeps
/// the assignments where Const2 holds, and returns the minimum of
/// Σ bits/(uplink·10⁶) over all streams, or nullopt when none exists.
std::optional<double> brute_force_min_cost(
    const eva::Workload& w, const std::vector<PeriodicStream>& fixed,
    const std::vector<std::size_t>& fixed_servers,
    const std::vector<PeriodicStream>& movable,
    const std::vector<bool>& usable) {
  std::vector<std::size_t> servers;
  for (std::size_t q = 0; q < w.num_servers(); ++q) {
    if (usable[q]) servers.push_back(q);
  }
  if (servers.empty()) return std::nullopt;
  std::vector<PeriodicStream> streams = fixed;
  streams.insert(streams.end(), movable.begin(), movable.end());
  std::vector<std::size_t> assignment = fixed_servers;
  assignment.resize(streams.size());
  std::vector<std::size_t> digit(movable.size(), 0);  // odometer over servers
  std::optional<double> best;
  while (true) {
    for (std::size_t k = 0; k < movable.size(); ++k) {
      assignment[fixed.size() + k] = servers[digit[k]];
    }
    if (const2_holds(streams, assignment, w.num_servers(), w.space.clock())) {
      double cost = 0.0;
      for (std::size_t i = 0; i < streams.size(); ++i) {
        cost +=
            streams[i].bits_per_frame / (w.uplink_mbps[assignment[i]] * 1e6);
      }
      if (!best || cost < *best) best = cost;
    }
    std::size_t k = 0;
    while (k < digit.size() && ++digit[k] == servers.size()) digit[k++] = 0;
    if (k == digit.size()) return best;
  }
}

/// Agreement with the oracle: the same minimum when it finds one (within
/// 1e-9), kInfeasible exactly when it finds none.
void expect_matches_oracle(const BnbResult& bnb,
                           const std::optional<double>& oracle) {
  if (!oracle) {
    EXPECT_EQ(bnb.status, BnbStatus::kInfeasible);
    return;
  }
  ASSERT_EQ(bnb.status, BnbStatus::kOptimal);
  EXPECT_NEAR(bnb.objective, *oracle, 1e-9);
  EXPECT_NEAR(bnb.lower_bound, bnb.objective, 1e-9);
}

/// The first instance of a small sweep where Algorithm 1 finds no schedule
/// but the gcd-condition search does: co-prime periods with tiny
/// processing times pass Theorem 1 while failing Algorithm 1's Theorem-3
/// grouping.
std::pair<eva::Workload, eva::JointConfig> greedy_fails_bnb_succeeds() {
  Rng rng(85);
  for (int trial = 0; trial < 200; ++trial) {
    eva::Workload w = workload(4, 2, 850 + trial);
    eva::JointConfig config;
    for (std::size_t i = 0; i < 4; ++i) {
      config.push_back({w.space.resolutions()[rng.uniform_index(2)],
                        w.space.fps_knobs()[rng.uniform_index(5)]});
    }
    if (!schedule_zero_jitter(w, config).feasible &&
        schedule_bnb(w, config).status == BnbStatus::kOptimal) {
      return {std::move(w), std::move(config)};
    }
  }
  ADD_FAILURE() << "no instance where only branch-and-bound succeeds";
  return {};
}

// The acceptance criterion of the engine: it reaches exactly the minimum
// that enumerating every assignment finds, and proves infeasibility
// exactly when there is none.
TEST(Bnb, OptimalCostMatchesExhaustiveSearch) {
  Rng rng(21);
  int compared = 0;
  for (int trial = 0; trial < 40 && compared < 12; ++trial) {
    const eva::Workload w = workload(3 + trial % 4, 2 + trial % 2, 210 + trial);
    const eva::JointConfig config = random_config(w, rng);
    const std::vector<PeriodicStream> streams = split_streams(w, config);
    if (std::pow(static_cast<double>(w.num_servers()),
                 static_cast<double>(streams.size())) > 2e5) {
      continue;  // too many assignments to enumerate in a unit test
    }
    const BnbResult bnb = schedule_bnb(w, config);
    expect_matches_oracle(
        bnb, brute_force_min_cost(w, {}, {}, streams,
                                  std::vector<bool>(w.num_servers(), true)));
    if (bnb.status == BnbStatus::kOptimal) expect_valid_schedule(w, bnb);
    ++compared;
  }
  EXPECT_GE(compared, 10);
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

// A starved budget must surface as kUnknown (nothing found) or
// kFeasibleBudget (anytime answer) — never as a claim of infeasibility.
TEST(Bnb, BudgetExhaustionIsNeverReportedInfeasible) {
  BnbOptions starved;
  starved.max_nodes = 0;

  // Algorithm 1 fails here, so there is no seed to fall back on.
  const auto [hard, hard_config] = greedy_fails_bnb_succeeds();
  const BnbResult unknown = schedule_bnb(hard, hard_config, starved);
  EXPECT_EQ(unknown.status, BnbStatus::kUnknown);
  EXPECT_FALSE(unknown.schedule.feasible);
  EXPECT_EQ(unknown.nodes_expanded, 0u);

  const eva::Workload w = workload(8, 4, 87);
  const eva::JointConfig config(8, {720, 10});
  ASSERT_EQ(schedule_bnb(w, config).status, BnbStatus::kOptimal);
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

// Pinned repair against the same oracle: survivors stay on their servers,
// the orphans of one or two failed servers are enumerated over the rest.
TEST(BnbPinned, OptimalCostMatchesExhaustiveSearch) {
  Rng rng(25);
  int optimal = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 60 && optimal + infeasible < 16; ++trial) {
    const eva::Workload w = workload(3 + trial % 4, 4, 250 + trial);
    const eva::JointConfig config = random_config(w, rng);
    const ScheduleResult before = schedule_zero_jitter(w, config);
    if (!before.feasible) continue;
    std::vector<bool> usable(w.num_servers(), true);
    usable[before.assignment[0]] = false;
    if (trial % 4 == 3) usable[before.assignment.back()] = false;
    std::vector<PeriodicStream> fixed;
    std::vector<std::size_t> fixed_servers;
    std::vector<PeriodicStream> orphans;
    for (std::size_t i = 0; i < before.streams.size(); ++i) {
      if (usable[before.assignment[i]]) {
        fixed.push_back(before.streams[i]);
        fixed_servers.push_back(before.assignment[i]);
      } else {
        orphans.push_back(before.streams[i]);
      }
    }
    const BnbResult bnb = reschedule_bnb_pinned(w, config, before, usable);
    expect_matches_oracle(
        bnb, brute_force_min_cost(w, fixed, fixed_servers, orphans, usable));
    if (bnb.status == BnbStatus::kOptimal) {
      expect_valid_schedule(w, bnb);
      ++optimal;
    } else {
      ++infeasible;
    }
  }
  EXPECT_GE(optimal + infeasible, 10);
  EXPECT_GT(optimal, 0);
  EXPECT_GT(infeasible, 0);
}

// ---- The exact-placement contract Algorithm 1 is audited against -------

/// A schedule exists: found and proven optimal, or found before the node
/// budget ran out. kUnknown is neither proof of feasibility nor of
/// infeasibility.
bool exact_feasible(BnbStatus status) {
  return status == BnbStatus::kOptimal || status == BnbStatus::kFeasibleBudget;
}

TEST(ExactSchedule, FindsFeasibleLowLoadSchedule) {
  const eva::Workload w = workload(5, 3, 81);
  const eva::JointConfig config(5, {720, 10});
  const BnbResult result = schedule_bnb(w, config);
  EXPECT_EQ(result.status, BnbStatus::kOptimal);
  expect_valid_schedule(w, result);
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
    const BnbResult exact = schedule_bnb(w, config);
    ASSERT_EQ(exact.status, BnbStatus::kOptimal)
        << "heuristic feasible but exact search found nothing";
    EXPECT_LE(exact.schedule.comm_cost, heuristic.comm_cost + 1e-12);
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
    EXPECT_TRUE(exact_feasible(schedule_bnb(w, config).status));
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
    const BnbStatus exact = schedule_bnb(w, config).status;
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
  const eva::JointConfig config(6, {960, 15});
  const BnbResult result = schedule_bnb(w, config);
  if (!result.schedule.feasible) GTEST_SKIP() << "instance infeasible";
  const sim::SimReport report = sim::simulate(w, result.schedule);
  EXPECT_NEAR(report.max_jitter, 0.0, 1e-9);
  EXPECT_NEAR(report.total_queue_delay, 0.0, 1e-9);
}

// A budget too small to reach a leaf must read as "unknown" when Algorithm
// 1 has no seed to offer, never as a proof of infeasibility.
TEST(ExactSchedule, NodeBudgetReportsUnknownNotInfeasible) {
  const auto [w, config] = greedy_fails_bnb_succeeds();
  BnbOptions options;
  options.max_nodes = 3;  // absurdly small
  const BnbResult starved = schedule_bnb(w, config, options);
  EXPECT_EQ(starved.status, BnbStatus::kUnknown);
  EXPECT_FALSE(starved.schedule.feasible);
}

// A budget large enough to find *a* schedule but not to prove optimality
// must come back as kFeasibleBudget, never passed off as the optimum.
TEST(ExactSchedule, MidBudgetReportsFeasibleBudget) {
  const eva::Workload w = workload(8, 4, 87);
  const eva::JointConfig config(8, {720, 10});
  const BnbResult proven = schedule_bnb(w, config);
  ASSERT_EQ(proven.status, BnbStatus::kOptimal);

  bool saw_feasible_budget = false;
  for (std::size_t budget = 1;
       budget < proven.nodes_expanded && !saw_feasible_budget; budget *= 2) {
    BnbOptions options;
    options.max_nodes = budget;
    const BnbResult partial = schedule_bnb(w, config, options);
    EXPECT_NE(partial.status, BnbStatus::kInfeasible);
    if (partial.status == BnbStatus::kFeasibleBudget) {
      saw_feasible_budget = true;
      EXPECT_TRUE(partial.schedule.feasible);
      // Anytime contract: the partial answer is a real schedule, at worst
      // costlier than the proven optimum.
      EXPECT_GE(partial.objective, proven.objective - 1e-12);
    }
  }
  EXPECT_TRUE(saw_feasible_budget)
      << "no budget in the sweep caught the found-but-unproven window";
}

}  // namespace
}  // namespace pamo::sched
