// Same-seed reproducibility of the full service stack. Two independently
// constructed SchedulingService instances — identical seeds, fault plan,
// and telemetry corruption — must produce bit-for-bit identical epochs:
// the schedules, the simulator's measured behaviour, the BO benefit
// trajectory, and the resilience-loop repairs all feed one FNV-1a digest
// per epoch, and the digests are compared as plain integers. Any hidden
// nondeterminism (unordered iteration, time-based seeding, data races in
// the thread pool) shows up as a digest mismatch here.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/thread_pool.hpp"
#include "core/report_digest.hpp"
#include "core/service.hpp"
#include "eva/churn.hpp"
#include "eva/clip.hpp"
#include "sim/fault.hpp"
#include "support/service_fixtures.hpp"

namespace pamo::core {
namespace {

// Digests come from core/report_digest.hpp — the same FNV-1a definition
// the daemon logs per epoch and the restart matrix compares against, so
// "deterministic here" and "recovered bit-identically there" mean the
// same thing.

sim::FaultPlan hostile_plan() {
  sim::FaultPlan plan;
  plan.kill_server(1, 1.5, 3.0);       // crash with recovery
  plan.collapse_uplink(0, 0.5, 0.4);   // 60% bandwidth loss
  plan.slow_server(2, 1.0, 2.5, 3.5);  // transient straggler
  plan.drop_frames(0.05, 0xD15EA5E);   // i.i.d. frame loss
  return plan;
}

eva::TelemetryCorruptionOptions hostile_telemetry() {
  eva::TelemetryCorruptionOptions corruption;
  corruption.nan_rate = 0.02;
  corruption.inf_rate = 0.01;
  corruption.outlier_rate = 0.05;
  corruption.stuck_rate = 0.03;
  corruption.drop_rate = 0.02;
  corruption.seed = 0xFEED;
  return corruption;
}

// The headline regression test: run the full operating loop twice — same
// seed, faults active, telemetry corrupted — and require per-epoch digest
// equality across three epochs (epoch 0 interviews the oracle; later
// epochs reuse the persistent preference model and exercise the repair
// path against the fault plan).
TEST(Determinism, SameSeedFullServiceDoubleRunIsBitIdentical) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);

  auto run = [&](std::uint64_t seed) {
    SchedulingService service(workload, tiny_service(seed));
    service.set_fault_plan(hostile_plan());
    service.set_telemetry_corruption(hostile_telemetry());
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    std::vector<std::uint64_t> digests;
    for (int epoch = 0; epoch < 3; ++epoch) {
      digests.push_back(digest_epoch(service.run_epoch(oracle)));
    }
    return digests;
  };

  const auto first = run(77);
  const auto second = run(77);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "epoch " << i << " diverged";
  }
}

// Control for the digest itself: a different seed must not collide, or the
// test above would be vacuous.
TEST(Determinism, DifferentSeedsProduceDifferentDigests) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  auto one_epoch = [&](std::uint64_t seed) {
    SchedulingService service(workload, tiny_service(seed));
    service.set_fault_plan(hostile_plan());
    service.set_telemetry_corruption(hostile_telemetry());
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    return digest_epoch(service.run_epoch(oracle));
  };
  EXPECT_NE(one_epoch(77), one_epoch(78));
}

// Thread-count invariance: the full hostile epoch run at a 1-worker pool
// and at an 8-worker pool must produce identical digests. All randomness is
// pre-drawn serially in seed order, so the parallel fan-out only ever
// executes deterministic transforms — any scheduling-dependent arithmetic
// (an accumulation order that depends on which worker got which block)
// breaks this digest comparison at the first epoch.
TEST(Determinism, SameSeedIsBitIdenticalAcrossThreadCounts) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);

  auto run = [&](std::size_t workers) {
    ThreadPool pool(workers);
    ThreadPool::ScopedDefault guard(pool);
    SchedulingService service(workload, tiny_service(77));
    service.set_fault_plan(hostile_plan());
    service.set_telemetry_corruption(hostile_telemetry());
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    std::vector<std::uint64_t> digests;
    for (int epoch = 0; epoch < 2; ++epoch) {
      digests.push_back(digest_epoch(service.run_epoch(oracle)));
    }
    return digests;
  };

  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i])
        << "epoch " << i << " diverged across thread counts";
  }
}

// Stream churn, the admission governor, and warm-started continual
// learning all ride the same pre-drawn-randomness discipline as the rest
// of the stack: a churning service at a 1-worker pool and at an 8-worker
// pool must produce identical digests (which, under churn, also mix the
// admission accounting and every governor action).
TEST(Determinism, ChurnedServiceIsBitIdenticalAcrossThreadCounts) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  eva::ChurnOptions churn;
  churn.arrival_rate = 0.8;
  churn.mean_lifetime_epochs = 3.0;
  churn.diurnal_amplitude = 0.3;
  churn.diurnal_period = 6;
  churn.drift_per_epoch = 0.05;
  churn.horizon = 16;
  churn.seed = 909;

  auto run = [&](std::size_t workers) {
    ThreadPool pool(workers);
    ThreadPool::ScopedDefault guard(pool);
    ServiceOptions options = tiny_service(77);
    options.continual.warm_start = true;
    options.governor.enabled = true;
    options.governor.max_streams = workload.num_streams() + 1;
    SchedulingService service(workload, options);
    service.set_churn_plan(eva::ChurnPlan(churn));
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    std::vector<std::uint64_t> digests;
    for (int epoch = 0; epoch < 3; ++epoch) {
      digests.push_back(digest_epoch(service.run_epoch(oracle)));
    }
    return digests;
  };

  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i])
        << "epoch " << i << " diverged across thread counts";
  }
}

// The empty churn plan is the identity: installing it must not perturb a
// single digest relative to a plain service (the clean path stays
// zero-copy, and the digest of a churn-free epoch mixes no churn fields).
TEST(Determinism, EmptyChurnPlanLeavesDigestsUntouched) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);
  auto run = [&](bool install_empty_plan) {
    SchedulingService service(workload, tiny_service(9));
    if (install_empty_plan) service.set_churn_plan(eva::ChurnPlan());
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    std::vector<std::uint64_t> digests;
    for (int epoch = 0; epoch < 2; ++epoch) {
      digests.push_back(digest_epoch(service.run_epoch(oracle)));
    }
    return digests;
  };
  EXPECT_EQ(run(false), run(true));
}

// The fault-free loop must be reproducible too (faults off is the
// production common case, and it routes through different code paths:
// no repair, no corruption sanitizing).
TEST(Determinism, CleanServiceDoubleRunIsBitIdentical) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);
  auto run = [&] {
    SchedulingService service(workload, tiny_service(9));
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    std::vector<std::uint64_t> digests;
    for (int epoch = 0; epoch < 2; ++epoch) {
      digests.push_back(digest_epoch(service.run_epoch(oracle)));
    }
    return digests;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace pamo::core
