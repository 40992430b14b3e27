// Daemon policy: checkpoint cadence, repair-triggered checkpoints,
// pruning, the simulated clock, and resume of the cumulative state
// (ticks, digest trajectory, repair log). Bit-identical *recovery* under
// injected kills lives in integration/test_daemon_restart.cpp.
#include "core/daemon.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <filesystem>

#include "common/error.hpp"
#include "eva/clip.hpp"
#include "sim/fault.hpp"
#include "support/service_fixtures.hpp"

namespace pamo::core {
namespace {

std::string make_temp_dir() {
  char buf[] = "/tmp/pamo_daemon_XXXXXX";
  const char* dir = ::mkdtemp(buf);
  if (dir == nullptr) throw pamo::Error("mkdtemp failed");
  return dir;
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = make_temp_dir(); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DaemonOptions daemon_options() {
    DaemonOptions options;
    options.checkpoint_dir = dir_;
    return options;
  }

  std::string dir_;
};

TEST_F(DaemonTest, CadenceControlsWhenCheckpointsLand) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);
  DaemonOptions options = daemon_options();
  options.checkpoint_every = 2;
  options.keep_checkpoints = 0;  // keep everything; this test counts files
  Daemon daemon(workload, tiny_service(9), options);
  EXPECT_FALSE(daemon.resume().has_value());  // empty store = fresh start

  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto outcomes = daemon.run(oracle, 4);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_FALSE(outcomes[0].checkpoint_sequence.has_value());
  ASSERT_TRUE(outcomes[1].checkpoint_sequence.has_value());
  EXPECT_FALSE(outcomes[2].checkpoint_sequence.has_value());
  ASSERT_TRUE(outcomes[3].checkpoint_sequence.has_value());
  EXPECT_EQ(daemon.store().list().size(), 2u);
  EXPECT_EQ(daemon.ticks(), 4 * options.ticks_per_epoch);
  EXPECT_EQ(daemon.epoch_digests().size(), 4u);
}

TEST_F(DaemonTest, ZeroCadenceStillCheckpointsOnRepair) {
  // Hostile plan from epoch 0 → repairs fire; with cadence disabled, the
  // only snapshots on disk are the repair-triggered ones.
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  DaemonOptions options = daemon_options();
  options.checkpoint_every = 0;
  Daemon daemon(workload, tiny_service(77), options);
  sim::FaultPlan plan;
  plan.kill_server(1, 1.5, 3.0);
  plan.collapse_uplink(0, 0.5, 0.4);
  plan.slow_server(2, 1.0, 2.5, 3.5);
  plan.drop_frames(0.05, 0xD15EA5E);
  daemon.service().set_fault_plan(plan);

  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto outcomes = daemon.run(oracle, 3);
  std::size_t repaired_epochs = 0;
  for (const auto& outcome : outcomes) {
    const bool repair_due = outcome.report.repaired || outcome.report.fallback;
    EXPECT_EQ(outcome.checkpoint_sequence.has_value(), repair_due);
    if (repair_due) ++repaired_epochs;
  }
  EXPECT_EQ(daemon.store().list().size(), repaired_epochs);
  // The hostile plan's server kill is there to make this non-vacuous.
  EXPECT_GT(repaired_epochs, 0u);
}

TEST_F(DaemonTest, CheckpointNowIsUnconditionalAndPrunes) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);
  DaemonOptions options = daemon_options();
  options.checkpoint_every = 0;
  options.keep_checkpoints = 2;
  Daemon daemon(workload, tiny_service(9), options);
  EXPECT_EQ(daemon.checkpoint_now(), 1u);
  EXPECT_EQ(daemon.checkpoint_now(), 2u);
  EXPECT_EQ(daemon.checkpoint_now(), 3u);
  const auto files = daemon.store().list();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files.front(), "ckpt-00000002.json");
  EXPECT_EQ(files.back(), "ckpt-00000003.json");
}

TEST_F(DaemonTest, ResumeRestoresClockTrajectoryAndRepairLog) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  sim::FaultPlan plan;
  plan.kill_server(1, 1.5, 3.0);

  Daemon first(workload, tiny_service(77), daemon_options());
  first.service().set_fault_plan(plan);
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  first.run(oracle_a, 2);
  const auto digests = first.epoch_digests();
  const auto repairs = first.repair_log();
  const auto ticks = first.ticks();

  // A brand-new daemon over the same store picks the lineage back up.
  // The fault plan rides in the checkpoint — no re-install needed.
  Daemon second(workload, tiny_service(77), daemon_options());
  const auto resumed = second.resume();
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(second.ticks(), ticks);
  EXPECT_EQ(second.epoch_digests(), digests);
  ASSERT_EQ(second.repair_log().size(), repairs.size());
  for (std::size_t i = 0; i < repairs.size(); ++i) {
    EXPECT_EQ(second.repair_log()[i].epoch, repairs[i].epoch);
    EXPECT_EQ(second.repair_log()[i].kind, repairs[i].kind);
    EXPECT_EQ(second.repair_log()[i].detail, repairs[i].detail);
  }
  EXPECT_EQ(second.service().epochs_run(), first.service().epochs_run());
}

TEST_F(DaemonTest, ResumedDaemonContinuesTheDigestTrajectory) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);

  // Uninterrupted reference: 3 epochs straight through.
  Daemon reference(workload, tiny_service(9),
                   [&] {
                     DaemonOptions o;
                     o.checkpoint_dir = dir_ + "/ref";
                     return o;
                   }());
  pref::PreferenceOracle oracle_ref(pref::BenefitFunction::uniform());
  reference.run(oracle_ref, 3);

  // Interrupted run: 2 epochs, process "dies", new daemon resumes, 1 more.
  {
    Daemon before(workload, tiny_service(9), daemon_options());
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    before.run(oracle, 2);
  }
  Daemon after(workload, tiny_service(9), daemon_options());
  ASSERT_TRUE(after.resume().has_value());
  pref::PreferenceOracle oracle_resumed(pref::BenefitFunction::uniform());
  after.run(oracle_resumed, 1);

  EXPECT_EQ(after.epoch_digests(), reference.epoch_digests());
}

}  // namespace
}  // namespace pamo::core
