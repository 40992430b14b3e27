#include <gtest/gtest.h>

#include "core/service.hpp"
#include "eva/clip.hpp"
#include "sim/fault.hpp"
#include "support/service_fixtures.hpp"

namespace pamo::core {
namespace {

TEST(ServiceFaults, KillOneOfFourServersIsRepairedWithoutUnservedStreams) {
  const eva::Workload workload = eva::make_workload(5, 4, 301);
  const auto preview = preview_second_epoch(workload, tiny_service(11));
  ASSERT_TRUE(preview.feasible);
  SchedulingService service(workload, tiny_service(11));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto first = service.run_epoch(oracle);
  ASSERT_TRUE(first.feasible);
  EXPECT_FALSE(first.repaired);
  EXPECT_TRUE(first.repairs.empty());

  // Kill the server that hosts the second epoch's first split stream,
  // mid-horizon, no recovery — the acceptance scenario of the fault model.
  const std::size_t victim = preview.schedule.assignment[0];
  sim::FaultPlan plan;
  plan.kill_server(victim, 2.0);
  service.set_fault_plan(plan);

  const auto second = service.run_epoch(oracle);
  ASSERT_TRUE(second.feasible);
  ASSERT_EQ(second.schedule.assignment, preview.schedule.assignment);
  EXPECT_FALSE(second.sim.server_up_at_end[victim]);
  ASSERT_TRUE(second.repaired);
  ASSERT_FALSE(second.repairs.empty());
  // The repaired placement avoids the dead server entirely...
  for (std::size_t server : second.repaired_schedule.assignment) {
    EXPECT_NE(server, victim);
  }
  // ...and, re-validated with the server dead for the whole horizon, every
  // surviving stream is served with bounded (zero) jitter.
  EXPECT_EQ(second.post_repair_sim.unserved_streams, 0u);
  EXPECT_GT(second.post_repair_sim.total_frames, 0u);
  EXPECT_EQ(second.post_repair_sim.total_dropped, 0u);
  EXPECT_NEAR(second.post_repair_sim.max_jitter, 0.0, 1e-9);
  const RepairKind kind = second.repairs.front().kind;
  EXPECT_TRUE(kind == RepairKind::kReplaceOrphans ||
              kind == RepairKind::kFullRepack || kind == RepairKind::kRephase);
}

TEST(ServiceFaults, EmptyFaultPlanLeavesEpochsIdentical) {
  const eva::Workload w = eva::make_workload(4, 3, 302);
  SchedulingService plain(w, tiny_service(12));
  SchedulingService with_empty(w, tiny_service(12));
  with_empty.set_fault_plan(sim::FaultPlan{});
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto a = plain.run_epoch(oracle_a);
    const auto b = with_empty.run_epoch(oracle_b);
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
    EXPECT_EQ(a.sim.total_frames, b.sim.total_frames);
    EXPECT_EQ(a.sim.total_dropped, 0u);
    EXPECT_EQ(b.sim.total_dropped, 0u);
    EXPECT_FALSE(b.repaired);
    EXPECT_TRUE(b.repairs.empty());
    EXPECT_FALSE(b.fallback);
  }
}

TEST(ServiceFaults, InfeasibleEpochFallsBackToLastKnownGood) {
  const eva::Workload base = eva::make_workload(4, 3, 303);
  SchedulingService service(base, tiny_service(13));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto first = service.run_epoch(oracle);
  ASSERT_TRUE(first.feasible);
  ASSERT_TRUE(service.has_last_good());

  // A workload so heavy that no configuration is feasible: every clip's
  // processing load inflated 40x.
  eva::Workload monster = base;
  for (auto& clip : monster.clips) {
    clip = eva::ClipProfile::scaled_load(clip, 40.0);
  }
  service.set_workload(monster);
  const auto second = service.run_epoch(oracle);
  // The service must not return an empty infeasible report: the last
  // known-good decision is carried forward and flagged.
  ASSERT_TRUE(second.feasible);
  EXPECT_TRUE(second.fallback);
  ASSERT_FALSE(second.repairs.empty());
  EXPECT_EQ(second.repairs.front().kind, RepairKind::kFallbackSchedule);
  ASSERT_EQ(second.config.size(), first.config.size());
  for (std::size_t i = 0; i < second.config.size(); ++i) {
    EXPECT_EQ(second.config[i].resolution, first.config[i].resolution);
    EXPECT_EQ(second.config[i].fps, first.config[i].fps);
  }
  EXPECT_FALSE(second.schedule.assignment.empty());
  EXPECT_GT(second.sim.total_frames, 0u);
}

TEST(ServiceFaults, UplinkCollapseTriggersRepairThatMeetsTheSlo) {
  ServiceOptions options = tiny_service(14);
  options.resilience.slo_latency = 2.0;
  const eva::Workload workload = eva::make_workload(5, 4, 304);
  const auto preview = preview_second_epoch(workload, options);
  ASSERT_TRUE(preview.feasible);
  SchedulingService service(workload, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto first = service.run_epoch(oracle);
  ASSERT_TRUE(first.feasible);

  const std::size_t victim = preview.schedule.assignment[0];
  sim::FaultPlan plan;
  plan.collapse_uplink(victim, 0.0, 0.1);
  service.set_fault_plan(plan);
  const auto second = service.run_epoch(oracle);
  ASSERT_TRUE(second.feasible);
  ASSERT_EQ(second.schedule.assignment, preview.schedule.assignment);
  EXPECT_EQ(second.sim.uplink_factor_at_end[victim], 0.1);
  ASSERT_TRUE(second.repaired);
  ASSERT_FALSE(second.repairs.empty());
  EXPECT_EQ(second.post_repair_sim.slo_violations, 0u);
  EXPECT_EQ(second.post_repair_sim.unserved_streams, 0u);
}

TEST(ServiceFaults, StragglerIsPaddedForAndStaysJitterFree) {
  const eva::Workload workload = eva::make_workload(5, 4, 305);
  const auto preview = preview_second_epoch(workload, tiny_service(15));
  ASSERT_TRUE(preview.feasible);
  SchedulingService service(workload, tiny_service(15));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto first = service.run_epoch(oracle);
  ASSERT_TRUE(first.feasible);

  const std::size_t victim = preview.schedule.assignment[0];
  sim::FaultPlan plan;
  plan.slow_server(victim, 1.0, 2.5);
  service.set_fault_plan(plan);
  const auto second = service.run_epoch(oracle);
  ASSERT_TRUE(second.feasible);
  ASSERT_EQ(second.schedule.assignment, preview.schedule.assignment);
  EXPECT_EQ(second.sim.slowdown_at_end[victim], 2.5);
  ASSERT_TRUE(second.repaired);
  // Validated at the degraded speed: everyone served, nothing queues.
  EXPECT_EQ(second.post_repair_sim.unserved_streams, 0u);
  EXPECT_NEAR(second.post_repair_sim.total_queue_delay, 0.0, 1e-9);
  EXPECT_NEAR(second.post_repair_sim.max_jitter, 0.0, 1e-9);
}

TEST(ServiceFaults, DeepStragglerIsRoutedAroundLikeADeadServer) {
  // Slowing a server of the second epoch's placement forces a repair.
  const eva::Workload workload = eva::make_workload(5, 4, 306);
  const auto preview = preview_second_epoch(workload, tiny_service(16));
  ASSERT_TRUE(preview.feasible);

  SchedulingService service(workload, tiny_service(16));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  ASSERT_TRUE(service.run_epoch(oracle).feasible);
  const std::size_t victim = preview.schedule.assignment[0];
  sim::FaultPlan plan;
  plan.slow_server(victim, 0.0, 8.0);  // >= kStragglerExclusion (4x)
  service.set_fault_plan(plan);
  const auto second = service.run_epoch(oracle);
  ASSERT_TRUE(second.feasible);
  ASSERT_EQ(second.schedule.assignment, preview.schedule.assignment);
  ASSERT_TRUE(second.repaired);
  for (std::size_t server : second.repaired_schedule.assignment) {
    EXPECT_NE(server, victim);
  }
  EXPECT_EQ(second.post_repair_sim.unserved_streams, 0u);
}

TEST(ServiceFaults, FrameLossAloneIsAccountedButNotRepaired) {
  SchedulingService service(eva::make_workload(4, 3, 307), tiny_service(17));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  sim::FaultPlan plan;
  plan.drop_frames(0.25, 5);
  service.set_fault_plan(plan);
  const auto report = service.run_epoch(oracle);
  ASSERT_TRUE(report.feasible);
  EXPECT_GT(report.sim.dropped_by_loss, 0u);
  EXPECT_EQ(report.sim.total_frames + report.sim.total_dropped,
            report.sim.total_emitted);
  // Random loss with healthy servers and no SLO breach needs no repair.
  EXPECT_FALSE(report.repaired);
  EXPECT_TRUE(report.repairs.empty());
}

TEST(ServiceFaults, DisabledResilienceStillMeasuresFaultsButNeverRepairs) {
  ServiceOptions options = tiny_service(18);
  options.resilience.enabled = false;
  SchedulingService service(eva::make_workload(4, 3, 308), options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  sim::FaultPlan plan;
  plan.kill_server(0, 0.0);
  service.set_fault_plan(plan);
  const auto report = service.run_epoch(oracle);
  ASSERT_TRUE(report.feasible);
  // The validation sim still honours the plan (the faults are real)...
  EXPECT_FALSE(report.sim.server_up_at_end[0]);
  EXPECT_EQ(report.sim.server_availability[0], 0.0);
  // ...but no repair is attempted.
  EXPECT_FALSE(report.repaired);
  EXPECT_TRUE(report.repairs.empty());
}

}  // namespace
}  // namespace pamo::core
