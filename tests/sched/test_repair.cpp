#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/constraints.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace pamo::sched {
namespace {

eva::Workload workload(std::size_t streams, std::size_t servers,
                       std::uint64_t seed = 31) {
  return eva::make_workload(streams, servers, seed);
}

void expect_schedules_identical(const ScheduleResult& a,
                                const ScheduleResult& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.uplink_per_parent, b.uplink_per_parent);
  EXPECT_EQ(a.latency_per_parent, b.latency_per_parent);
  EXPECT_EQ(a.comm_cost, b.comm_cost);
}

TEST(Repair, MaskedWithAllServersMatchesUnmaskedBitForBit) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const eva::Workload w = workload(6, 4, seed);
    const eva::JointConfig config(6, {720, 10});
    const auto full = schedule_zero_jitter(w, config);
    const auto masked = schedule_zero_jitter_masked(
        w, config, std::vector<bool>(w.num_servers(), true));
    expect_schedules_identical(full, masked);
  }
}

TEST(Repair, MaskedNeverUsesExcludedServers) {
  const eva::Workload w = workload(6, 4);
  const eva::JointConfig config(6, {720, 10});
  std::vector<bool> usable(w.num_servers(), true);
  usable[1] = false;
  const auto schedule = schedule_zero_jitter_masked(w, config, usable);
  ASSERT_TRUE(schedule.feasible);
  for (std::size_t server : schedule.assignment) {
    EXPECT_TRUE(usable[server]) << "stream placed on excluded server";
  }
  // Still a zero-jitter decision on the survivors.
  const auto report = sim::simulate(w, schedule);
  EXPECT_NEAR(report.max_jitter, 0.0, 1e-9);
  EXPECT_TRUE(const2_holds(schedule.streams, schedule.assignment,
                           w.num_servers(), w.space.clock()));
}

TEST(Repair, MaskedRejectsBadMasks) {
  const eva::Workload w = workload(4, 3);
  const eva::JointConfig config(4, {720, 10});
  EXPECT_THROW(
      schedule_zero_jitter_masked(w, config, std::vector<bool>(2, true)),
      Error);
  EXPECT_THROW(schedule_zero_jitter_masked(
                   w, config, std::vector<bool>(w.num_servers(), false)),
               Error);
  EXPECT_THROW(schedule_zero_jitter_masked(
                   w, config, std::vector<bool>(w.num_servers(), true), 0.5),
               Error);
}

TEST(Repair, PinnedKeepsSurvivorsAndAbsorbsOrphans) {
  const eva::Workload w = workload(8, 4);
  const eva::JointConfig config(8, {720, 10});
  const auto before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);

  // Kill the server hosting stream 0.
  std::vector<bool> usable(w.num_servers(), true);
  const std::size_t dead = before.assignment[0];
  usable[dead] = false;

  const auto after = reschedule_pinned(w, config, before, usable);
  ASSERT_TRUE(after.feasible);
  ASSERT_EQ(after.assignment.size(), before.assignment.size());
  std::size_t orphans = 0;
  for (std::size_t i = 0; i < before.assignment.size(); ++i) {
    if (before.assignment[i] == dead) {
      ++orphans;
      EXPECT_NE(after.assignment[i], dead) << "orphan left on dead server";
    } else {
      // Survivors stay exactly where they were.
      EXPECT_EQ(after.assignment[i], before.assignment[i]) << i;
    }
  }
  EXPECT_GT(orphans, 0u);

  // The repaired schedule is still Theorem-3 valid and contention-free.
  EXPECT_TRUE(const2_holds(after.streams, after.assignment, w.num_servers(),
                           w.space.clock()));
  const auto report = sim::simulate(w, after);
  EXPECT_NEAR(report.max_jitter, 0.0, 1e-9);
  EXPECT_NEAR(report.total_queue_delay, 0.0, 1e-9);
}

TEST(Repair, PinnedWithNothingOrphanedReturnsSameAssignment) {
  const eva::Workload w = workload(6, 4);
  const eva::JointConfig config(6, {720, 10});
  const auto before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);
  const auto after = reschedule_pinned(
      w, config, before, std::vector<bool>(w.num_servers(), true));
  ASSERT_TRUE(after.feasible);
  EXPECT_EQ(after.assignment, before.assignment);
}

TEST(Repair, PinnedSignalsInfeasibilityInsteadOfThrowing) {
  // With an enormous processing headroom even the pinned groups no longer
  // satisfy Theorem 3 — the repair must report infeasible, not crash.
  const eva::Workload w = workload(6, 3);
  const eva::JointConfig config(6, {720, 10});
  const auto before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);
  std::vector<bool> usable(w.num_servers(), true);
  usable[before.assignment[0]] = false;
  const auto after =
      reschedule_pinned(w, config, before, usable, /*proc_headroom=*/1e4);
  EXPECT_FALSE(after.feasible);
}

TEST(Repair, HeadroomKeepsScheduleJitterFreeUnderSlowdown) {
  // Pack with headroom h, then run on servers actually slowed by h: frames
  // must still never queue (the straggler-tolerant repair property).
  const double h = 2.0;
  const eva::Workload w = workload(6, 3);
  const eva::JointConfig config(6, {480, 5});
  const auto schedule = schedule_zero_jitter_masked(
      w, config, std::vector<bool>(w.num_servers(), true), h);
  ASSERT_TRUE(schedule.feasible);
  sim::FaultPlan plan;
  for (std::size_t s = 0; s < w.num_servers(); ++s) {
    plan.slow_server(s, 0.0, h);
  }
  sim::SimOptions options;
  options.faults = &plan;
  const auto report = sim::simulate(w, schedule, options);
  EXPECT_GT(report.total_frames, 0u);
  EXPECT_NEAR(report.total_queue_delay, 0.0, 1e-9);
  EXPECT_NEAR(report.max_jitter, 0.0, 1e-9);
}

TEST(Repair, PinnedValidatesInputSizes) {
  const eva::Workload w = workload(4, 3);
  const eva::JointConfig config(4, {720, 10});
  const auto before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);
  EXPECT_THROW(
      reschedule_pinned(w, config, before, std::vector<bool>(1, true)),
      Error);
  ScheduleResult mangled = before;
  mangled.assignment.pop_back();
  EXPECT_THROW(reschedule_pinned(w, config, mangled,
                                 std::vector<bool>(w.num_servers(), true)),
               Error);
}

TEST(Repair, PinnedWithZeroSurvivorsReturnsInfeasible) {
  // An empty fleet at the repair entry point is an environment state, not
  // a caller bug: the repair must signal infeasibility (so callers
  // escalate) instead of throwing.
  const eva::Workload w = workload(4, 3);
  const eva::JointConfig config(4, {720, 10});
  const auto before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);
  const std::vector<bool> none(w.num_servers(), false);
  const auto after = reschedule_pinned(w, config, before, none);
  EXPECT_FALSE(after.feasible);
  EXPECT_TRUE(after.assignment.empty());
}

TEST(Repair, SingleSurvivorAbsorbsEveryOrphanWhenItFits) {
  // Capacity-saturation edge, fitting side: every server but one dies, so
  // the pinned set and every orphan must land on the lone survivor. At a
  // light configuration the survivor has the capacity, and the result
  // must still be a valid zero-jitter single-server schedule.
  const eva::Workload w = workload(4, 3);
  const eva::JointConfig config(4, {480, 5});
  const auto before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);

  const std::size_t survivor = before.assignment[0];
  std::vector<bool> usable(w.num_servers(), false);
  usable[survivor] = true;

  const auto after = reschedule_pinned(w, config, before, usable);
  ASSERT_TRUE(after.feasible);
  ASSERT_EQ(after.assignment.size(), before.assignment.size());
  for (std::size_t server : after.assignment) {
    EXPECT_EQ(server, survivor) << "stream not on the lone survivor";
  }
  // Streams already on the survivor stayed pinned (trivially: there is
  // only one usable placement), and the packed group is Theorem-3 valid.
  EXPECT_TRUE(const2_holds(after.streams, after.assignment, w.num_servers(),
                           w.space.clock()));
  const auto report = sim::simulate(w, after);
  EXPECT_NEAR(report.max_jitter, 0.0, 1e-9);
  EXPECT_NEAR(report.total_queue_delay, 0.0, 1e-9);
}

TEST(Repair, SingleSurvivorSignalsInfeasibleWhenSaturated) {
  // Capacity-saturation edge, overload side: the same single-survivor
  // collapse under a processing headroom large enough that the orphans
  // cannot all fit one server. The repair must report infeasible (the
  // resilience loop then escalates to knob degradation or fallback), and
  // must never throw for an environment-caused overload.
  const eva::Workload w = workload(6, 3);
  const eva::JointConfig config(6, {720, 10});
  const auto before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);

  const std::size_t survivor = before.assignment[0];
  std::vector<bool> usable(w.num_servers(), false);
  usable[survivor] = true;

  const auto after =
      reschedule_pinned(w, config, before, usable, /*proc_headroom=*/50.0);
  EXPECT_FALSE(after.feasible);
}

TEST(Repair, SingleSurvivorSaturationBoundaryIsAnOrderedDegradation) {
  // Walk the headroom up from 1: once the single-survivor repair turns
  // infeasible it must stay infeasible (capacity only shrinks), so the
  // boundary between "fits" and "saturated" is a single threshold, not a
  // flapping region.
  const eva::Workload w = workload(4, 3);
  const eva::JointConfig config(4, {480, 5});
  const auto before = schedule_zero_jitter(w, config);
  ASSERT_TRUE(before.feasible);
  const std::size_t survivor = before.assignment[0];
  std::vector<bool> usable(w.num_servers(), false);
  usable[survivor] = true;

  bool was_infeasible = false;
  bool ever_feasible = false;
  for (double headroom : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
    const auto after =
        reschedule_pinned(w, config, before, usable, headroom);
    if (after.feasible) {
      ever_feasible = true;
      EXPECT_FALSE(was_infeasible)
          << "repair became feasible again at headroom " << headroom;
    } else {
      was_infeasible = true;
    }
  }
  EXPECT_TRUE(ever_feasible) << "never fit even at headroom 1";
  EXPECT_TRUE(was_infeasible) << "never saturated even at headroom 128";
}

// The load screen inside the masked re-pack is sound at any headroom: a
// configuration whose inflated load h·Σ p·f exceeds the usable-server
// count is never feasible, and every feasible packing keeps each usable
// server's inflated utilization within 1 (Theorem 3(b) per group).
TEST(Repair, MaskedNeverFeasibleAboveTheLoadBound) {
  Rng rng(41);
  for (double headroom : {1.0, 1.5, 3.0}) {
    int rejected = 0;
    int accepted = 0;
    for (int trial = 0; trial < 300; ++trial) {
      const std::size_t streams = 2 + rng.uniform_index(5);
      const std::size_t servers = 1 + rng.uniform_index(3);
      const eva::Workload w = workload(streams, servers, 410 + trial);
      eva::JointConfig config;
      for (std::size_t i = 0; i < streams; ++i) {
        config.push_back(w.space.sample(rng));
      }
      std::vector<bool> usable(servers, true);
      if (servers > 1) usable[rng.uniform_index(servers)] = false;
      const auto usable_count = static_cast<double>(
          std::count(usable.begin(), usable.end(), true));
      double load = 0.0;
      for (std::size_t i = 0; i < streams; ++i) {
        load += w.clips[i].proc_time(config[i].resolution) * config[i].fps;
      }
      const ScheduleResult r =
          schedule_zero_jitter_masked(w, config, usable, headroom);
      if (headroom * load > usable_count * (1.0 + 1e-9)) {
        ++rejected;
        EXPECT_FALSE(r.feasible) << "headroom " << headroom << " trial "
                                 << trial;
        continue;
      }
      if (!r.feasible) continue;
      ++accepted;
      std::vector<double> utilization(servers, 0.0);
      for (std::size_t i = 0; i < r.streams.size(); ++i) {
        utilization[r.assignment[i]] +=
            r.streams[i].proc_time * headroom /
            w.space.clock().to_seconds(r.streams[i].period_ticks);
      }
      for (double u : utilization) EXPECT_LE(u, 1.0 + 1e-9);
    }
    EXPECT_GT(rejected, 10) << "headroom " << headroom;
    EXPECT_GT(accepted, 10) << "headroom " << headroom;
  }
}

// Theorem 3(b) binds a group's first member too: a stream whose inflated
// processing time exceeds its own period cannot keep up on any server, so
// neither the masked re-pack nor the pinned repair may report it feasible
// (branch-and-bound already proves such instances infeasible). The mixed
// configuration keeps the total load under the server count at headroom
// 10, so there the packing itself, not the load screen, must reject it.
TEST(Repair, StreamSlowerThanItsOwnPeriodIsNeverFeasible) {
  const eva::Workload w = workload(3, 3, 7);
  const std::vector<bool> all(w.num_servers(), true);
  const std::vector<eva::JointConfig> configs = {
      eva::JointConfig(3, {720, 10}),
      eva::JointConfig{{720, 10}, {480, 5}, {480, 5}}};
  for (const eva::JointConfig& config : configs) {
    const ScheduleResult spread =
        schedule_fixed_assignment(w, config, {0, 1, 2});
    for (double headroom : {10.0, 1e4}) {
      const double p0 = w.clips[0].proc_time(config[0].resolution);
      ASSERT_GT(p0 * headroom * config[0].fps, 1.0);
      EXPECT_FALSE(
          schedule_zero_jitter_masked(w, config, all, headroom).feasible)
          << "headroom " << headroom;
      EXPECT_FALSE(reschedule_pinned(w, config, spread, all, headroom).feasible)
          << "headroom " << headroom;
    }
  }
  double mixed_load = 0.0;
  for (std::size_t i = 0; i < configs[1].size(); ++i) {
    mixed_load += w.clips[i].proc_time(configs[1][i].resolution) *
                  configs[1][i].fps * 10.0;
  }
  EXPECT_LT(mixed_load, static_cast<double>(w.num_servers()));
}
}  // namespace
}  // namespace pamo::sched
