// Shard-partition invariants of the fleet allocator (sched/shard.hpp):
// every stream and every server lands in exactly one shard, no shard is
// empty, the plan is a pure function of the workload, the per-shard
// workloads are faithful id-order subsets, and merging per-shard
// schedules reproduces a flat schedule over the global id space — with
// infeasibility propagating instead of being papered over. Finally, the
// hierarchical decision's ground-truth benefit at small scale stays
// within a declared factor of the flat optimizer's.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <set>
#include <vector>

#include "core/evaluation.hpp"
#include "core/fleet.hpp"
#include "core/pamo.hpp"
#include "eva/outcomes.hpp"
#include "eva/workload.hpp"
#include "pref/oracle.hpp"
#include "sched/scheduler.hpp"
#include "sched/shard.hpp"

namespace pamo::sched {
namespace {

/// Exactly-once coverage of [0, n) by the shard id lists.
void expect_partition(const std::vector<std::vector<std::size_t>>& groups,
                      std::size_t n) {
  std::vector<std::size_t> seen(n, 0);
  for (const auto& group : groups) {
    EXPECT_FALSE(group.empty());
    for (std::size_t i = 0; i + 1 < group.size(); ++i) {
      EXPECT_LT(group[i], group[i + 1]) << "ids must ascend within a shard";
    }
    for (const std::size_t id : group) {
      ASSERT_LT(id, n);
      ++seen[id];
    }
  }
  for (std::size_t id = 0; id < n; ++id) {
    EXPECT_EQ(seen[id], 1u) << "id " << id;
  }
}

struct PlanCase {
  std::size_t streams;
  std::size_t servers;
  std::size_t target;
  std::size_t max_shards;
};

class ShardPlanSweep : public ::testing::TestWithParam<PlanCase> {};

TEST_P(ShardPlanSweep, PartitionsStreamsAndServersExactlyOnce) {
  const PlanCase c = GetParam();
  const eva::Workload workload =
      eva::make_fleet_workload(c.streams, c.servers, 0xA110C);
  ShardPlanOptions options;
  options.target_streams = c.target;
  options.max_shards = c.max_shards;
  const ShardPlan plan = make_shard_plan(workload, options);
  ASSERT_GE(plan.num_shards(), 1u);
  EXPECT_LE(plan.num_shards(), std::min(c.streams, c.servers));
  if (c.max_shards > 0) {
    EXPECT_LE(plan.num_shards(), c.max_shards);
  }
  ASSERT_EQ(plan.server_ids.size(), plan.num_shards());
  expect_partition(plan.stream_ids, c.streams);
  expect_partition(plan.server_ids, c.servers);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShardPlanSweep,
    ::testing::Values(PlanCase{30, 10, 12, 0}, PlanCase{100, 20, 8, 0},
                      PlanCase{13, 4, 40, 0},   // fewer streams than target
                      PlanCase{24, 3, 1, 0},    // server-count clamp
                      PlanCase{60, 16, 5, 3},   // max_shards cap
                      PlanCase{1, 1, 12, 0}));  // singleton fleet

TEST(ShardPlan, IsDeterministicAcrossCalls) {
  const eva::Workload workload = eva::make_fleet_workload(80, 12, 77);
  ShardPlanOptions options;
  options.target_streams = 10;
  const ShardPlan a = make_shard_plan(workload, options);
  const ShardPlan b = make_shard_plan(workload, options);
  ASSERT_EQ(a.num_shards(), b.num_shards());
  EXPECT_EQ(a.stream_ids, b.stream_ids);
  EXPECT_EQ(a.server_ids, b.server_ids);
}

TEST(ShardPlan, ShardWorkloadIsFaithfulIdOrderSubset) {
  const eva::Workload workload = eva::make_fleet_workload(40, 8, 123);
  ShardPlanOptions options;
  options.target_streams = 8;
  const ShardPlan plan = make_shard_plan(workload, options);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const eva::Workload sub = shard_workload(workload, plan, s);
    ASSERT_EQ(sub.num_streams(), plan.stream_ids[s].size());
    ASSERT_EQ(sub.num_servers(), plan.server_ids[s].size());
    for (std::size_t k = 0; k < sub.num_streams(); ++k) {
      const std::size_t g = plan.stream_ids[s][k];
      // ClipProfile has no operator==; its load curve identifies it.
      EXPECT_DOUBLE_EQ(sub.clips[k].proc_time(720.0),
                       workload.clips[g].proc_time(720.0));
      EXPECT_DOUBLE_EQ(sub.clips[k].accuracy(720.0, 15.0),
                       workload.clips[g].accuracy(720.0, 15.0));
    }
    for (std::size_t k = 0; k < sub.num_servers(); ++k) {
      EXPECT_DOUBLE_EQ(sub.uplink_mbps[k],
                       workload.uplink_mbps[plan.server_ids[s][k]]);
    }
  }
}

TEST(ShardMerge, StitchesShardSchedulesIntoFlatIdSpace) {
  const eva::Workload workload = eva::make_fleet_workload(24, 8, 321);
  ShardPlanOptions options;
  options.target_streams = 6;
  const ShardPlan plan = make_shard_plan(workload, options);
  ASSERT_GT(plan.num_shards(), 1u);

  // Knob floor everywhere: the least demanding joint configuration, so
  // every shard schedules feasibly.
  const eva::StreamConfig floor{workload.space.resolutions().front(),
                                workload.space.fps_knobs().front()};
  std::vector<ScheduleResult> locals;
  double comm_sum = 0.0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const eva::Workload sub = shard_workload(workload, plan, s);
    const eva::JointConfig config(sub.num_streams(), floor);
    locals.push_back(schedule_zero_jitter(sub, config));
    ASSERT_TRUE(locals.back().feasible) << "shard " << s;
    comm_sum += locals.back().comm_cost;
  }
  const ScheduleResult merged = merge_shard_schedules(
      plan, locals, workload.num_streams(), workload.num_servers());
  ASSERT_TRUE(merged.feasible);
  EXPECT_DOUBLE_EQ(merged.comm_cost, comm_sum);
  ASSERT_EQ(merged.uplink_per_parent.size(), workload.num_streams());
  ASSERT_EQ(merged.latency_per_parent.size(), workload.num_streams());

  // Every parent covered exactly once, by a server from its own shard.
  std::set<std::size_t> parents;
  for (std::size_t k = 0; k < merged.streams.size(); ++k) {
    parents.insert(merged.streams[k].parent);
    ASSERT_LT(merged.assignment[k], workload.num_servers());
  }
  EXPECT_EQ(parents.size(), workload.num_streams());
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const std::set<std::size_t> servers(plan.server_ids[s].begin(),
                                        plan.server_ids[s].end());
    const std::set<std::size_t> streams(plan.stream_ids[s].begin(),
                                        plan.stream_ids[s].end());
    for (std::size_t k = 0; k < merged.streams.size(); ++k) {
      if (streams.count(merged.streams[k].parent) > 0) {
        EXPECT_EQ(servers.count(merged.assignment[k]), 1u)
            << "stream " << merged.streams[k].parent
            << " left its shard's servers";
      }
    }
    // Per-parent vectors scatter through the plan unchanged.
    for (std::size_t k = 0; k < plan.stream_ids[s].size(); ++k) {
      const std::size_t g = plan.stream_ids[s][k];
      EXPECT_DOUBLE_EQ(merged.latency_per_parent[g],
                       locals[s].latency_per_parent[k]);
      EXPECT_DOUBLE_EQ(merged.uplink_per_parent[g],
                       locals[s].uplink_per_parent[k]);
    }
  }
}

TEST(ShardMerge, InfeasibleShardPropagates) {
  const eva::Workload workload = eva::make_fleet_workload(12, 4, 9);
  ShardPlanOptions options;
  options.target_streams = 4;
  const ShardPlan plan = make_shard_plan(workload, options);
  ASSERT_GT(plan.num_shards(), 1u);
  const eva::StreamConfig floor{workload.space.resolutions().front(),
                                workload.space.fps_knobs().front()};
  std::vector<ScheduleResult> locals;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const eva::Workload sub = shard_workload(workload, plan, s);
    const eva::JointConfig config(sub.num_streams(), floor);
    locals.push_back(schedule_zero_jitter(sub, config));
  }
  locals.back() = ScheduleResult{};  // one shard failed to schedule
  const ScheduleResult merged = merge_shard_schedules(
      plan, locals, workload.num_streams(), workload.num_servers());
  EXPECT_FALSE(merged.feasible);
  EXPECT_TRUE(merged.streams.empty());
}

TEST(ShardMerge, FleetBenefitWithinDeclaredFactorOfFlat) {
  // The declared factor: at small n (where the flat optimizer is still
  // tractable) the hierarchical decision's ground-truth benefit must not
  // trail the flat decision's by more than 30% of the benefit span
  // |u_flat − min(U)|. Sharding trades global knob coupling for
  // parallelism; this pins how much it is allowed to give up.
  const eva::Workload workload = eva::make_workload(18, 6, 2024);
  const pref::BenefitFunction benefit = pref::BenefitFunction::uniform();

  core::PamoOptions flat_options;
  flat_options.use_true_preference = true;
  flat_options.init_profiles = 24;
  flat_options.init_observations = 3;
  flat_options.mc_samples = 16;
  flat_options.batch_size = 2;
  flat_options.max_iters = 3;
  flat_options.max_pool_feasible = 48;
  flat_options.gp.mle_restarts = 1;
  flat_options.gp.mle_max_evals = 60;
  flat_options.seed = 99;
  pref::PreferenceOracle flat_oracle(benefit);
  core::PamoScheduler flat(workload, flat_options);
  const core::PamoResult flat_result = flat.run(flat_oracle);
  ASSERT_TRUE(flat_result.feasible);

  core::FleetOptions fleet;
  fleet.enabled = true;
  fleet.shard.target_streams = 6;
  fleet.pamo.seed = 99;
  const pref::PreferenceOracle oracle(benefit);
  core::FleetReport report;
  const core::PamoResult fleet_result =
      core::run_fleet_epoch(workload, fleet, oracle, &report);
  ASSERT_TRUE(fleet_result.feasible);
  ASSERT_GT(report.plan.num_shards(), 1u);

  const auto normalizer = eva::OutcomeNormalizer::for_workload(workload);
  const auto flat_score =
      core::evaluate_solution(workload, flat_result.best_config,
                              flat_result.best_schedule, normalizer, benefit);
  const auto fleet_score =
      core::evaluate_solution(workload, fleet_result.best_config,
                              fleet_result.best_schedule, normalizer, benefit);
  ASSERT_TRUE(flat_score.has_value());
  ASSERT_TRUE(fleet_score.has_value());
  // min(U) = -1/2 Σ w_i (footnote 2): the worst attainable benefit.
  const double u_min = -0.5 * 5.0;
  const double span = std::fabs(flat_score->benefit - u_min);
  EXPECT_GE(fleet_score->benefit, flat_score->benefit - 0.3 * span)
      << "flat " << flat_score->benefit << " fleet " << fleet_score->benefit;
}

}  // namespace
}  // namespace pamo::sched
