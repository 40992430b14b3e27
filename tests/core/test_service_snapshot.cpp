// Service-level snapshot/restore: the resume property at the layer the
// daemon checkpoints. A service restored mid-lineage must replay every
// future epoch bit-identically to the instance that never stopped —
// schedules, sim reports, BO trajectories, repairs, oracle traffic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/report_digest.hpp"
#include "core/service.hpp"
#include "eva/clip.hpp"
#include "sim/fault.hpp"
#include "support/service_fixtures.hpp"

namespace pamo::core {
namespace {

sim::FaultPlan hostile_plan() {
  sim::FaultPlan plan;
  plan.kill_server(1, 1.5, 3.0);
  plan.collapse_uplink(0, 0.5, 0.4);
  plan.slow_server(2, 1.0, 2.5, 3.5);
  plan.drop_frames(0.05, 0xD15EA5E);
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

// The core resume theorem, hostile edition: run 2 epochs with faults and
// corrupted telemetry, snapshot, restore into a fresh instance, then run
// 2 more epochs on both — the restored service's digests must equal the
// uninterrupted service's, epoch for epoch. The snapshot carries the
// learner RNG mid-stream and the telemetry stuck-at memory; losing either
// diverges epoch 2 immediately.
TEST(ServiceSnapshot, RestoredServiceReplaysFutureEpochsBitIdentically) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);

  SchedulingService uninterrupted(workload, tiny_service(77));
  uninterrupted.set_fault_plan(hostile_plan());
  uninterrupted.set_telemetry_corruption(hostile_telemetry());
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 2; ++epoch) {
    (void)uninterrupted.run_epoch(oracle_a);
  }

  // Serialize through actual bytes — the daemon never hands the live
  // Value tree across a restart.
  const std::string bytes = uninterrupted.snapshot().dump();
  SchedulingService restored(workload, tiny_service(77));
  restored.restore(obs::json::Value::parse(bytes));
  EXPECT_EQ(restored.epochs_run(), uninterrupted.epochs_run());
  EXPECT_EQ(restored.has_last_good(), uninterrupted.has_last_good());

  // Fresh oracle: the learner snapshot carries all past answers, so the
  // restored side never re-asks them.
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 2; epoch < 4; ++epoch) {
    const auto report_a = uninterrupted.run_epoch(oracle_a);
    const auto report_b = restored.run_epoch(oracle_b);
    EXPECT_EQ(digest_epoch(report_b), digest_epoch(report_a))
        << "epoch " << epoch << " diverged after restore";
  }
}

// Clean-path variant (no faults, no corruption): restore must also be
// exact when the optional state blocks are absent from the snapshot.
TEST(ServiceSnapshot, CleanServiceRoundTripsWithoutOptionalState) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);
  SchedulingService uninterrupted(workload, tiny_service(9));
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  (void)uninterrupted.run_epoch(oracle_a);

  SchedulingService restored(workload, tiny_service(9));
  restored.restore(uninterrupted.snapshot());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  const auto report_a = uninterrupted.run_epoch(oracle_a);
  const auto report_b = restored.run_epoch(oracle_b);
  EXPECT_EQ(digest_epoch(report_b), digest_epoch(report_a));
}

// A snapshot taken before the first epoch (no learner, no last-good, no
// models) restores into a service that then runs epoch 0 identically.
TEST(ServiceSnapshot, PreFirstEpochSnapshotRoundTrips) {
  const eva::Workload workload = eva::make_workload(4, 3, 423);
  SchedulingService uninterrupted(workload, tiny_service(5));
  SchedulingService restored(workload, tiny_service(5));
  restored.restore(uninterrupted.snapshot());
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  EXPECT_EQ(digest_epoch(restored.run_epoch(oracle_b)),
            digest_epoch(uninterrupted.run_epoch(oracle_a)));
}

TEST(ServiceSnapshot, RestoreRejectsWrongKind) {
  const eva::Workload workload = eva::make_workload(4, 3, 424);
  SchedulingService service(workload, tiny_service(1));
  obs::json::Value snap = service.snapshot();
  snap.set("kind", obs::json::Value(std::string("pamo.other_state.v9")));
  EXPECT_THROW(service.restore(snap), pamo::Error);
}

// Restoring a snapshot into a service built on a different workload is a
// deployment mistake, not a resumable state — the fingerprint catches it
// before any learned state gets transplanted onto the wrong environment.
TEST(ServiceSnapshot, RestoreRejectsWorkloadMismatch) {
  const eva::Workload workload_a = eva::make_workload(5, 4, 421);
  const eva::Workload workload_b = eva::make_workload(5, 4, 500);
  SchedulingService source(workload_a, tiny_service(77));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  (void)source.run_epoch(oracle);

  SchedulingService victim(workload_b, tiny_service(77));
  EXPECT_THROW(victim.restore(source.snapshot()), pamo::Error);
}

// The snapshot itself must be deterministic bytes: two snapshots of the
// same state serialize identically (checkpoint digests depend on it).
TEST(ServiceSnapshot, SnapshotBytesAreDeterministic) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  SchedulingService service(workload, tiny_service(77));
  service.set_fault_plan(hostile_plan());
  service.set_telemetry_corruption(hostile_telemetry());
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  (void)service.run_epoch(oracle);
  EXPECT_EQ(service.snapshot().dump(), service.snapshot().dump());
}

}  // namespace
}  // namespace pamo::core
