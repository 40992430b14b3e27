#include <gtest/gtest.h>

#include "core/report_digest.hpp"
#include "core/service.hpp"
#include "sim/fault.hpp"
#include "support/service_fixtures.hpp"

namespace pamo::core {
namespace {

/// Run two epochs — one healthy, then one with the server of its own first
/// stream killed mid-horizon — and return both reports.
std::pair<SchedulingService::EpochReport, SchedulingService::EpochReport>
run_kill_scenario(const ServiceOptions& options, std::uint64_t workload_seed) {
  const eva::Workload workload = eva::make_workload(5, 4, workload_seed);
  const auto preview = preview_second_epoch(workload, options);
  EXPECT_TRUE(preview.feasible);
  SchedulingService service(workload, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  auto first = service.run_epoch(oracle);
  EXPECT_TRUE(first.feasible);
  sim::FaultPlan plan;
  plan.kill_server(preview.schedule.assignment.at(0), 2.0);
  service.set_fault_plan(plan);
  auto second = service.run_epoch(oracle);
  EXPECT_EQ(second.schedule.assignment, preview.schedule.assignment);
  return {std::move(first), std::move(second)};
}

// The knob's core contract: merely *enabling* the exact path while keeping
// it inert (max_orphans = 0 can never match a real orphan count) must be
// bit-for-bit identical to the default-off service, epoch digests and all.
TEST(ServiceExactRepair, InertKnobIsBitForBitIdenticalToOff) {
  const ServiceOptions off = tiny_service(41);
  ServiceOptions inert = tiny_service(41);
  inert.resilience.exact_repair.enabled = true;
  inert.resilience.exact_repair.max_orphans = 0;

  const auto [off_first, off_second] = run_kill_scenario(off, 311);
  const auto [inert_first, inert_second] = run_kill_scenario(inert, 311);
  EXPECT_EQ(digest_epoch(off_first), digest_epoch(inert_first));
  EXPECT_EQ(digest_epoch(off_second), digest_epoch(inert_second));
  ASSERT_TRUE(off_second.repaired);
  ASSERT_TRUE(inert_second.repaired);
  EXPECT_EQ(digest_schedule(off_second.repaired_schedule),
            digest_schedule(inert_second.repaired_schedule));
}

TEST(ServiceExactRepair, FiresAndLogsExactReplaceOrphans) {
  ServiceOptions options = tiny_service(42);
  options.resilience.exact_repair.enabled = true;
  const auto [first, second] = run_kill_scenario(options, 312);
  const std::size_t victim = second.schedule.assignment[0];
  ASSERT_TRUE(second.repaired);
  ASSERT_FALSE(second.repairs.empty());
  EXPECT_EQ(second.repairs.front().kind, RepairKind::kExactReplaceOrphans);
  // Orphan accounting: nothing dropped silently — the repaired schedule
  // re-places every sub-stream of the epoch's split, none on the victim.
  EXPECT_EQ(second.repaired_schedule.streams.size(),
            second.schedule.streams.size());
  for (std::size_t server : second.repaired_schedule.assignment) {
    EXPECT_NE(server, victim);
  }
  EXPECT_EQ(second.post_repair_sim.unserved_streams, 0u);
  EXPECT_NEAR(second.post_repair_sim.max_jitter, 0.0, 1e-9);
}

// The exact path is anytime: starving its node budget must degrade to the
// greedy pinned repair's schedule (the search's incumbent seed), never to
// a worse answer and never to a spurious "infeasible" escalation.
TEST(ServiceExactRepair, BudgetBreachDegradesToTheGreedyRepair) {
  const ServiceOptions off = tiny_service(43);
  ServiceOptions starved = tiny_service(43);
  starved.resilience.exact_repair.enabled = true;
  starved.resilience.exact_repair.max_nodes = 0;

  const auto [off_first, off_second] = run_kill_scenario(off, 313);
  const auto [starved_first, starved_second] = run_kill_scenario(starved, 313);
  EXPECT_EQ(digest_epoch(off_first), digest_epoch(starved_first));
  ASSERT_TRUE(off_second.repaired);
  ASSERT_TRUE(starved_second.repaired);
  // Same repaired placement bit-for-bit; only the action label may differ
  // (the exact path reports its budget-limited status honestly).
  EXPECT_EQ(digest_schedule(off_second.repaired_schedule),
            digest_schedule(starved_second.repaired_schedule));
  ASSERT_EQ(off_second.repaired_config.size(),
            starved_second.repaired_config.size());
  for (std::size_t p = 0; p < off_second.repaired_config.size(); ++p) {
    EXPECT_EQ(off_second.repaired_config[p], starved_second.repaired_config[p]);
  }
}

// When the exact search fires, its repair can only improve on the greedy
// pinned repair's communication cost — never regress it.
TEST(ServiceExactRepair, NeverCostsMoreThanTheGreedyRepair) {
  const ServiceOptions off = tiny_service(44);
  ServiceOptions exact = tiny_service(44);
  exact.resilience.exact_repair.enabled = true;
  const auto [off_first, off_second] = run_kill_scenario(off, 314);
  const auto [exact_first, exact_second] = run_kill_scenario(exact, 314);
  ASSERT_TRUE(off_second.repaired);
  ASSERT_TRUE(exact_second.repaired);
  EXPECT_LE(exact_second.repaired_schedule.comm_cost,
            off_second.repaired_schedule.comm_cost + 1e-12);
}

}  // namespace
}  // namespace pamo::core
