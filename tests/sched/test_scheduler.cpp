#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "ckpt/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sched/constraints.hpp"

namespace pamo::sched {
namespace {

eva::Workload workload(std::size_t streams, std::size_t servers,
                       std::uint64_t seed = 21) {
  return eva::make_workload(streams, servers, seed);
}

TEST(ZeroJitter, FeasibleLowLoadSchedule) {
  const eva::Workload w = workload(4, 3);
  eva::JointConfig config(4, {480, 5});
  const ScheduleResult r = schedule_zero_jitter(w, config);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.streams.size(), 4u);
  EXPECT_EQ(r.assignment.size(), 4u);
  EXPECT_TRUE(const2_holds(r.streams, r.assignment, w.num_servers(),
                           w.space.clock()));
  EXPECT_TRUE(const1_holds(r.streams, r.assignment, w.num_servers(),
                           w.space.clock()));
}

TEST(ZeroJitter, InfeasibleWhenOverloaded) {
  // 12 maxed-out streams cannot fit on 2 servers.
  const eva::Workload w = workload(12, 2);
  eva::JointConfig config(12, {1920, 30});
  const ScheduleResult r = schedule_zero_jitter(w, config);
  EXPECT_FALSE(r.feasible);
}

TEST(ZeroJitter, RandomConfigsAlwaysSatisfyConstraintsWhenFeasible) {
  const eva::Workload w = workload(8, 5);
  Rng rng(31);
  int feasible_count = 0;
  for (int trial = 0; trial < 150; ++trial) {
    eva::JointConfig config;
    for (std::size_t i = 0; i < 8; ++i) config.push_back(w.space.sample(rng));
    const ScheduleResult r = schedule_zero_jitter(w, config);
    if (!r.feasible) continue;
    ++feasible_count;
    EXPECT_TRUE(const2_holds(r.streams, r.assignment, w.num_servers(),
                             w.space.clock()))
        << "trial " << trial;
  }
  EXPECT_GT(feasible_count, 10);
}

TEST(ZeroJitter, PhasesStaggerWithinServer) {
  const eva::Workload w = workload(6, 2);
  eva::JointConfig config(6, {720, 10});
  const ScheduleResult r = schedule_zero_jitter(w, config);
  ASSERT_TRUE(r.feasible);
  // Arrival offsets (phase + transfer) on each server must be spaced by at
  // least the preceding stream's processing time.
  for (std::size_t server = 0; server < w.num_servers(); ++server) {
    std::vector<std::pair<double, double>> arrivals;  // (offset, proc)
    for (std::size_t i = 0; i < r.streams.size(); ++i) {
      if (r.assignment[i] != server) continue;
      const double transfer = r.streams[i].bits_per_frame /
                              (w.uplink_mbps[server] * 1e6);
      arrivals.push_back({r.phase[i] + transfer, r.streams[i].proc_time});
    }
    std::sort(arrivals.begin(), arrivals.end());
    for (std::size_t k = 1; k < arrivals.size(); ++k) {
      EXPECT_GE(arrivals[k].first,
                arrivals[k - 1].first + arrivals[k - 1].second - 1e-9);
    }
  }
}

TEST(ZeroJitter, HungarianPrefersFastUplinksForHeavyGroups) {
  // One heavy stream, one light stream, two servers with very different
  // uplinks: the heavy stream must land on the fast server.
  eva::Workload w = workload(2, 2);
  w.uplink_mbps = {5.0, 30.0};
  eva::JointConfig config{{1920, 5}, {480, 5}};
  const ScheduleResult r = schedule_zero_jitter(w, config);
  ASSERT_TRUE(r.feasible);
  // Identify the sub-streams of parent 0 (heavy).
  for (std::size_t i = 0; i < r.streams.size(); ++i) {
    if (r.streams[i].parent == 0) {
      EXPECT_EQ(w.uplink_mbps[r.assignment[i]], 30.0);
    }
  }
}

TEST(ZeroJitter, CommCostMatchesAssignment) {
  const eva::Workload w = workload(5, 3);
  eva::JointConfig config(5, {960, 10});
  const ScheduleResult r = schedule_zero_jitter(w, config);
  ASSERT_TRUE(r.feasible);
  double expected = 0.0;
  for (std::size_t i = 0; i < r.streams.size(); ++i) {
    expected += r.streams[i].bits_per_frame /
                (w.uplink_mbps[r.assignment[i]] * 1e6);
  }
  EXPECT_NEAR(r.comm_cost, expected, 1e-12);
}

TEST(ZeroJitter, LatencyPerParentIsEq5) {
  const eva::Workload w = workload(3, 3);
  eva::JointConfig config(3, {720, 6});
  const ScheduleResult r = schedule_zero_jitter(w, config);
  ASSERT_TRUE(r.feasible);
  for (std::size_t parent = 0; parent < 3; ++parent) {
    const double p = w.clips[parent].proc_time(720);
    const double bits = w.clips[parent].bits_per_frame(720);
    const double expected =
        p + bits / (r.uplink_per_parent[parent] * 1e6);
    EXPECT_NEAR(r.latency_per_parent[parent], expected, 1e-9);
  }
}

TEST(FirstFit, PlacesByConst1Only) {
  const eva::Workload w = workload(6, 3);
  eva::JointConfig config(6, {960, 15});
  const ScheduleResult r = schedule_first_fit(w, config);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(const1_holds(r.streams, r.assignment, w.num_servers(),
                           w.space.clock()));
  // First-fit leaves phases at zero (jitter-oblivious).
  for (double phase : r.phase) EXPECT_DOUBLE_EQ(phase, 0.0);
}

TEST(FirstFit, InfeasibleWhenCapacityExceeded) {
  const eva::Workload w = workload(10, 1);
  eva::JointConfig config(10, {1920, 30});
  EXPECT_FALSE(schedule_first_fit(w, config).feasible);
}

TEST(FixedAssignment, HonorsParentMapping) {
  const eva::Workload w = workload(4, 3);
  eva::JointConfig config(4, {720, 10});
  const std::vector<std::size_t> servers{2, 0, 1, 2};
  const ScheduleResult r = schedule_fixed_assignment(w, config, servers);
  ASSERT_TRUE(r.feasible);
  for (std::size_t i = 0; i < r.streams.size(); ++i) {
    EXPECT_EQ(r.assignment[i], servers[r.streams[i].parent]);
  }
  EXPECT_THROW(
      schedule_fixed_assignment(w, config, std::vector<std::size_t>{0, 1}),
      Error);
  EXPECT_THROW(schedule_fixed_assignment(
                   w, config, std::vector<std::size_t>{0, 1, 2, 9}),
               Error);
}

// Pins Algorithm 1's decisions bit-for-bit: one FNV digest over the
// feasible flag, assignment, phases, per-parent uplinks and communication
// cost of 2,040 seeded configurations on the paper's testbed shape (12
// streams, 4 servers) and the fleet-shard shapes (12 streams on 1 and on 2
// servers). Each draw caps both knob axes at their lowest K - k knobs,
// k = trial mod 6, the way core::draw_feasible narrows its caps after
// failures, so light (packable) and heavy (rejected) draws alternate.
// The constant was computed before the load screen and the vector-free
// packing existed; an optimization of Algorithm 1 must leave it unchanged.
TEST(ZeroJitter, GoldenDigestOverSeededConfigs) {
  const std::vector<eva::Workload> shapes = {
      eva::make_workload(12, 4, 19), eva::make_fleet_workload(12, 1, 19),
      eva::make_fleet_workload(12, 2, 19)};
  Rng rng(1919);
  ckpt::Fnv1a digest;
  std::size_t feasible = 0;
  for (const eva::Workload& w : shapes) {
    const auto& resolutions = w.space.resolutions();
    const auto& fps_knobs = w.space.fps_knobs();
    for (std::size_t trial = 0; trial < 680; ++trial) {
      const std::size_t shrink = trial % 6;
      const std::size_t cap_res = resolutions.size() - shrink;
      const std::size_t cap_fps = std::max<std::size_t>(
          1, fps_knobs.size() - std::min(shrink, fps_knobs.size()));
      eva::JointConfig config(w.num_streams());
      for (auto& c : config) {
        c.resolution = resolutions[rng.uniform_index(cap_res)];
        c.fps = fps_knobs[rng.uniform_index(cap_fps)];
      }
      const ScheduleResult r = schedule_zero_jitter(w, config);
      feasible += r.feasible ? 1 : 0;
      digest.mix(r.feasible);
      digest.mix_all(r.assignment);
      digest.mix_all(r.phase);
      digest.mix_all(r.uplink_per_parent);
      digest.mix(r.comm_cost);
    }
  }
  EXPECT_EQ(feasible, 1132u);
  EXPECT_EQ(digest.value(), 0xFC28C4350E8479F9ULL);
}

// Feasibility should be monotone-ish in load: the all-minimum config must
// be feasible whenever the server count is at least 1 per ~3 light streams.
class FeasibilitySweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(FeasibilitySweep, MinimalConfigSchedulable) {
  const auto [streams, servers] = GetParam();
  const eva::Workload w = workload(streams, servers);
  eva::JointConfig config(streams, {480, 5});
  const ScheduleResult r = schedule_zero_jitter(w, config);
  EXPECT_TRUE(r.feasible)
      << streams << " light streams on " << servers << " servers";
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, FeasibilitySweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{7, 5},
                      std::pair<std::size_t, std::size_t>{8, 5},
                      std::pair<std::size_t, std::size_t>{10, 5},
                      std::pair<std::size_t, std::size_t>{11, 5},
                      std::pair<std::size_t, std::size_t>{10, 9}));

// Algorithm 1 keeps its working buffers per thread. A call must not see
// what an earlier call on its thread left behind, whatever that call's
// size, nor what another thread does at the same time.

void expect_same_schedule(const ScheduleResult& got,
                          const ScheduleResult& want) {
  EXPECT_EQ(got.feasible, want.feasible);
  ASSERT_EQ(got.streams.size(), want.streams.size());
  for (std::size_t i = 0; i < got.streams.size(); ++i) {
    EXPECT_EQ(got.streams[i].parent, want.streams[i].parent);
    EXPECT_EQ(got.streams[i].period_ticks, want.streams[i].period_ticks);
    EXPECT_EQ(got.streams[i].proc_time, want.streams[i].proc_time);
    EXPECT_EQ(got.streams[i].bits_per_frame, want.streams[i].bits_per_frame);
  }
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.phase, want.phase);
  EXPECT_EQ(got.uplink_per_parent, want.uplink_per_parent);
  EXPECT_EQ(got.latency_per_parent, want.latency_per_parent);
  EXPECT_EQ(got.comm_cost, want.comm_cost);
}

struct ScratchCase {
  const eva::Workload* workload;
  eva::JointConfig config;
};

/// Calls that alternate between a 12-stream, 4-server workload and a
/// 30-stream, 9-server one, with light configurations (feasible), random
/// ones (mostly infeasible after packing or screened) and everything in
/// between.
std::vector<ScratchCase> interleaved_cases(const eva::Workload& small,
                                           const eva::Workload& large) {
  std::vector<ScratchCase> cases;
  Rng rng(0x5C2A7C4);
  for (std::size_t k = 0; k < 120; ++k) {
    const eva::Workload& w = k % 2 == 0 ? small : large;
    eva::JointConfig config(w.num_streams());
    const std::size_t cap = 1 + (k / 2) % w.space.fps_knobs().size();
    for (auto& c : config) {
      c.resolution =
          w.space.resolutions()[rng.uniform_index(w.space.resolutions().size())];
      c.fps = w.space.fps_knobs()[rng.uniform_index(cap)];
    }
    cases.push_back({&w, std::move(config)});
  }
  return cases;
}

TEST(ZeroJitterScratch, InterleavedSizesMatchFreshThreads) {
  const eva::Workload small = workload(12, 4, 3);
  const eva::Workload large = workload(30, 9, 4);
  const std::vector<ScratchCase> cases = interleaved_cases(small, large);
  // Each reference result comes from a thread that never scheduled before.
  std::vector<ScheduleResult> fresh(cases.size());
  for (std::size_t k = 0; k < cases.size(); ++k) {
    std::thread([&, k] {
      fresh[k] = schedule_zero_jitter(*cases[k].workload, cases[k].config);
    }).join();
  }
  std::size_t feasible = 0;
  std::size_t packed_infeasible = 0;
  for (const ScheduleResult& r : fresh) {
    feasible += r.feasible ? 1 : 0;
    packed_infeasible += !r.feasible && !r.streams.empty() ? 1 : 0;
  }
  EXPECT_GT(feasible, 10u);
  EXPECT_GT(packed_infeasible, 0u);

  for (std::size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(k);
    expect_same_schedule(
        schedule_zero_jitter(*cases[k].workload, cases[k].config), fresh[k]);
  }

  ThreadPool pool(4);
  std::vector<ScheduleResult> pooled(cases.size());
  pool.parallel_for(cases.size(), [&](std::size_t k) {
    pooled[k] = schedule_zero_jitter(*cases[k].workload, cases[k].config);
  });
  for (std::size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(k);
    expect_same_schedule(pooled[k], fresh[k]);
  }
}

TEST(ZeroJitterScratch, MaskedAndRepairCallsLeaveNoTrace) {
  // The masked entry point and pinned repair share the per-thread
  // buffers with schedule_zero_jitter; a plain call after them is the
  // same as on a fresh thread.
  const eva::Workload w = workload(12, 4, 5);
  const eva::JointConfig config(12, {w.space.resolutions()[0],
                                     w.space.fps_knobs()[0]});
  ScheduleResult fresh;
  std::thread([&] { fresh = schedule_zero_jitter(w, config); }).join();
  ASSERT_TRUE(fresh.feasible);
  const std::vector<bool> usable = {true, false, true, true};
  const ScheduleResult masked =
      schedule_zero_jitter_masked(w, config, usable, 1.5);
  ASSERT_TRUE(masked.feasible);
  reschedule_pinned(w, config, fresh, usable, 1.2);
  expect_same_schedule(schedule_zero_jitter(w, config), fresh);
}

}  // namespace
}  // namespace pamo::sched
