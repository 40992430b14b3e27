// SchedulingService under stream churn: the offered workload changes
// epoch to epoch (arrivals, departures, drift, diurnal waves), the
// governor admits/defers/sheds when the load exceeds capacity, and the
// learning stack warm-starts across epochs instead of refitting from
// scratch. The empty-plan / governor-off configuration must remain
// bit-for-bit the pre-churn service.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/report_digest.hpp"
#include "core/service.hpp"
#include "eva/churn.hpp"
#include "sim/fault.hpp"
#include "support/service_fixtures.hpp"

namespace pamo::core {
namespace {

eva::ChurnPlan lively_churn(std::uint64_t seed) {
  eva::ChurnOptions churn;
  churn.arrival_rate = 0.8;
  churn.mean_lifetime_epochs = 3;
  churn.diurnal_amplitude = 0.3;
  churn.diurnal_period = 6;
  churn.drift_per_epoch = 0.05;
  churn.seed = seed;
  churn.horizon = 16;
  return eva::ChurnPlan(churn);
}

TEST(ServiceChurn, EmptyPlanIsBitwiseIdenticalToPlainService) {
  const eva::Workload workload = eva::make_workload(5, 4, 31);
  SchedulingService plain(workload, tiny_service(9));
  SchedulingService churned(workload, tiny_service(9));
  churned.set_churn_plan(eva::ChurnPlan());  // explicit empty plan
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto a = plain.run_epoch(oracle_a);
    const auto b = churned.run_epoch(oracle_b);
    EXPECT_EQ(digest_epoch(a), digest_epoch(b)) << "epoch " << epoch;
    EXPECT_EQ(b.churn.offered, b.churn.admitted);
    EXPECT_TRUE(b.governor_actions.empty());
  }
  // The snapshot must also stay byte-identical (no churn/governor keys).
  EXPECT_EQ(plain.snapshot().dump(), churned.snapshot().dump());
}

TEST(ServiceChurn, ChurnedEpochsStayAccountedAndFeasible) {
  const eva::Workload workload = eva::make_workload(4, 4, 33);
  SchedulingService service(workload, tiny_service(5));
  service.set_churn_plan(lively_churn(0xC0));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  bool saw_arrival = false;
  bool saw_departure = false;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto report = service.run_epoch(oracle);
    EXPECT_EQ(report.churn.admitted + report.churn.deferred +
                  report.churn.shed,
              report.churn.offered);
    saw_arrival |= report.churn.arrived > 0;
    saw_departure |= report.churn.departed > 0;
    if (report.feasible) {
      // The decision covers exactly the admitted streams.
      EXPECT_EQ(report.config.size(), report.churn.admitted);
      EXPECT_EQ(report.sim.per_stream.size(),
                report.schedule.streams.size());
    }
  }
  EXPECT_TRUE(saw_arrival);
  EXPECT_TRUE(saw_departure);
}

TEST(ServiceChurn, SameSeedChurnLineagesMatchDigestForDigest) {
  const eva::Workload workload = eva::make_workload(4, 4, 33);
  SchedulingService a(workload, tiny_service(5));
  SchedulingService b(workload, tiny_service(5));
  a.set_churn_plan(lively_churn(0xC1));
  b.set_churn_plan(lively_churn(0xC1));
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 4; ++epoch) {
    EXPECT_EQ(digest_epoch(a.run_epoch(oracle_a)),
              digest_epoch(b.run_epoch(oracle_b)))
        << "epoch " << epoch;
  }
}

TEST(ServiceChurn, GovernorShedsGracefullyUnderOfferedOverload) {
  // Aggressive arrivals against a tight governor budget: epochs must
  // stay feasible (the admitted subset is schedulable) while the excess
  // is deferred/shed — never an infeasible collapse.
  const eva::Workload workload = eva::make_workload(4, 3, 17);
  ServiceOptions options = tiny_service(11);
  // Budget for ~60% of the base set's knob-floor load: the base streams
  // alone already overflow it, and every arrival adds more pressure.
  GovernorOptions probe;
  probe.enabled = true;
  probe.max_load = 1e9;
  AdmissionGovernor measure(probe);
  options.governor.enabled = true;
  options.governor.max_load = measure.plan_epoch(0, workload).offered_load * 0.6;
  options.governor.max_defer_retries = 2;
  SchedulingService service(workload, options);
  eva::ChurnOptions churn;
  churn.arrival_rate = 2.0;
  churn.mean_lifetime_epochs = 6;
  churn.seed = 0xBEEF;
  churn.horizon = 8;
  service.set_churn_plan(eva::ChurnPlan(churn));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  bool saw_pressure = false;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto report = service.run_epoch(oracle);
    EXPECT_EQ(report.churn.admitted + report.churn.deferred +
                  report.churn.shed,
              report.churn.offered);
    EXPECT_LE(report.churn.admitted_load,
              options.governor.max_load + 1e-9);
    if (report.churn.deferred + report.churn.shed > 0) saw_pressure = true;
    if (report.churn.admitted > 0) {
      EXPECT_TRUE(report.feasible) << "epoch " << epoch;
    }
    // Every decision that changed the admitted set is in the log.
    for (const auto& action : report.governor_actions) {
      EXPECT_EQ(action.epoch, report.epoch);
      EXPECT_FALSE(action.detail.empty());
    }
  }
  EXPECT_TRUE(saw_pressure);
  EXPECT_GT(service.governor().num_shed() + service.governor().num_deferred(),
            0u);
}

TEST(ServiceChurn, WarmStartReportsAndStaysFeasible) {
  const eva::Workload workload = eva::make_workload(4, 4, 33);
  ServiceOptions options = tiny_service(5);
  options.continual.warm_start = true;
  options.continual.warm_profiles = 8;
  SchedulingService service(workload, options);
  service.set_churn_plan(lively_churn(0xC2));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto first = service.run_epoch(oracle);
  EXPECT_FALSE(first.health.learning.warm_started);
  for (int epoch = 1; epoch < 4; ++epoch) {
    const auto report = service.run_epoch(oracle);
    if (report.feasible && !report.fallback) {
      EXPECT_TRUE(report.health.learning.warm_started) << "epoch " << epoch;
    }
  }
}

TEST(ServiceChurn, WarmBankLearnsInEveryWarmEpoch) {
  // Every warm epoch folds its fresh profiles and Phase-3 measurements
  // into the retained bank: no row count stops continual learning.
  const eva::Workload workload = eva::make_workload(8, 4, 1);
  ServiceOptions options;
  options.continual.warm_start = true;
  SchedulingService service(workload, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  (void)service.run_epoch(oracle);
  ASSERT_NE(service.retained_models(), nullptr);
  std::size_t rows = service.retained_models()->num_points();
  for (int epoch = 1; epoch < 6; ++epoch) {
    const auto report = service.run_epoch(oracle);
    ASSERT_TRUE(report.health.learning.warm_started) << "epoch " << epoch;
    const std::size_t now = service.retained_models()->num_points();
    EXPECT_GT(now, rows) << "epoch " << epoch;
    rows = now;
  }
}

TEST(ServiceChurn, WatchdogStaysQuietWhenPhase3IsSkippedOnWarmEpochs) {
  // Satellite regression: a warm-started epoch that skips the BO loop
  // outright (zero iterations — nothing new to optimize) must not trip
  // the per-epoch watchdog. Budgets reset at every arm() and are only
  // consumed by recorded failures or wall-clock, never by the absence of
  // Phase-3 progress.
  const eva::Workload workload = eva::make_workload(4, 4, 33);
  ServiceOptions options = tiny_service(5);
  options.continual.warm_start = true;
  options.steady.max_iters = 0;  // Phase 3 skipped entirely
  options.steady.init_observations = 0;
  options.steady.watchdog.max_failures = 2;
  options.steady.watchdog.deadline_seconds = 30.0;
  SchedulingService service(workload, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  (void)service.run_epoch(oracle);
  for (int epoch = 1; epoch < 4; ++epoch) {
    const auto report = service.run_epoch(oracle);
    EXPECT_EQ(report.health.learning.watchdog_fires, 0u) << "epoch " << epoch;
    EXPECT_EQ(report.health.learning.iteration_failures, 0u)
        << "epoch " << epoch;
  }
}

TEST(ServiceChurn, PreferencePoolCapBoundsGrowthAcrossEpochs) {
  const eva::Workload workload = eva::make_workload(4, 4, 33);
  ServiceOptions capped_options = tiny_service(5);
  capped_options.continual.pref_pool_cap = 20;
  SchedulingService capped(workload, capped_options);
  SchedulingService unbounded(workload, tiny_service(5));
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 4; ++epoch) {
    (void)capped.run_epoch(oracle_a);
    (void)unbounded.run_epoch(oracle_b);
  }
  ASSERT_NE(capped.learner(), nullptr);
  ASSERT_NE(unbounded.learner(), nullptr);
  EXPECT_LE(capped.learner()->pool().size(), 20u + 8u);  // cap + one epoch
  EXPECT_GT(unbounded.learner()->pool().size(),
            capped.learner()->pool().size());
}

TEST(ServiceChurn, ChurnUnderActiveFaultPlanRepairsAndStaysDeterministic) {
  // Satellite: churn and the fault-injection path compose. Same-seed
  // lineages must stay digest-identical even when both are active.
  const eva::Workload workload = eva::make_workload(5, 4, 21);
  sim::FaultPlan faults;
  faults.kill_server(1, 1.5, 3.0);
  faults.collapse_uplink(0, 0.5, 0.4);
  faults.drop_frames(0.05, 0xD15EA5E);
  SchedulingService a(workload, tiny_service(77));
  SchedulingService b(workload, tiny_service(77));
  for (auto* service : {&a, &b}) {
    service->set_fault_plan(faults);
    service->set_churn_plan(lively_churn(0xC3));
  }
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  bool saw_repair = false;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto ra = a.run_epoch(oracle_a);
    const auto rb = b.run_epoch(oracle_b);
    EXPECT_EQ(digest_epoch(ra), digest_epoch(rb)) << "epoch " << epoch;
    saw_repair |= ra.repaired || !ra.repairs.empty();
  }
  EXPECT_TRUE(saw_repair);
}

TEST(ServiceChurn, SnapshotMidChurnResumesBitIdentically) {
  const eva::Workload workload = eva::make_workload(4, 4, 33);
  ServiceOptions options = tiny_service(5);
  options.governor.enabled = true;
  options.governor.max_load = 0.8;
  SchedulingService uninterrupted(workload, options);
  uninterrupted.set_churn_plan(lively_churn(0xC4));
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 2; ++epoch) {
    (void)uninterrupted.run_epoch(oracle_a);
  }
  const std::string bytes = uninterrupted.snapshot().dump();
  SchedulingService restored(workload, options);
  restored.restore(obs::json::Value::parse(bytes));
  // Fresh oracle: the learner snapshot carries all past answers, so the
  // restored side never re-asks them.
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 2; epoch < 5; ++epoch) {
    const auto ru = uninterrupted.run_epoch(oracle_a);
    const auto rr = restored.run_epoch(oracle_b);
    EXPECT_EQ(digest_epoch(ru), digest_epoch(rr)) << "epoch " << epoch;
  }
}

TEST(ServiceChurn, FingerprintGuardToleratesChurnButRejectsForeignWorkload) {
  // Satellite: the workload fingerprint covers the *base* workload only.
  // Churn never mutates the base, so a mid-churn snapshot restores onto a
  // service built over the same base — while a genuinely different
  // workload still trips the guard.
  const eva::Workload workload = eva::make_workload(4, 4, 33);
  ServiceOptions options = tiny_service(5);
  SchedulingService service(workload, options);
  service.set_churn_plan(lively_churn(0xC5));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 3; ++epoch) {
    (void)service.run_epoch(oracle);  // offered set differs from base now
  }
  const obs::json::Value snap = service.snapshot();

  SchedulingService same_base(workload, options);
  EXPECT_NO_THROW(same_base.restore(snap));

  const eva::Workload other = eva::make_workload(4, 4, 34);
  SchedulingService foreign(other, options);
  EXPECT_THROW(foreign.restore(snap), Error);
}

}  // namespace
}  // namespace pamo::core
