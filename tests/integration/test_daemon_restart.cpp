// The tentpole theorem: kill the daemon at EVERY instrumented point —
// epoch-loop and write-path alike, under active faults and corrupted
// telemetry — restart from disk, and the completed digest trajectory is
// bit-identical to a run that was never interrupted. Throw-mode kills
// run in-process here; the CI restart matrix (scripts/
// ckpt_restart_matrix.sh) repeats the same matrix with real process
// death (std::_Exit) on the pamo_daemon binary.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/atomic_io.hpp"
#include "ckpt/killpoint.hpp"
#include "common/error.hpp"
#include "core/daemon.hpp"
#include "eva/churn.hpp"
#include "eva/clip.hpp"
#include "sim/fault.hpp"
#include "support/service_fixtures.hpp"

namespace pamo::core {
namespace {

constexpr std::size_t kEpochs = 3;

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

std::string make_temp_dir() {
  char buf[] = "/tmp/pamo_restart_XXXXXX";
  const char* dir = ::mkdtemp(buf);
  if (dir == nullptr) throw pamo::Error("mkdtemp failed");
  return dir;
}

void arm_hostile(Daemon& daemon) {
  daemon.service().set_fault_plan(hostile_plan());
  daemon.service().set_telemetry_corruption(hostile_telemetry());
}

// The trajectory a never-interrupted daemon produces for this scenario.
std::vector<std::uint64_t> uninterrupted_trajectory(const std::string& dir) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  DaemonOptions options;
  options.checkpoint_dir = dir;
  Daemon daemon(workload, tiny_service(77), options);
  arm_hostile(daemon);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  daemon.run(oracle, kEpochs);
  return daemon.epoch_digests();
}

class DaemonRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = make_temp_dir();
    baseline_ = uninterrupted_trajectory(dir_ + "/baseline");
    ASSERT_EQ(baseline_.size(), kEpochs);
  }
  void TearDown() override {
    ckpt::disarm_kill();
    std::filesystem::remove_all(dir_);
  }

  // Run with a kill armed at `point` (firing on traversal `count`), catch
  // the injected death, resume a brand-new daemon from the store, finish
  // the epoch budget, and return the completed trajectory.
  std::vector<std::uint64_t> killed_and_resumed(const std::string& store_dir,
                                                const char* point,
                                                std::size_t count) {
    const eva::Workload workload = eva::make_workload(5, 4, 421);
    DaemonOptions options;
    options.checkpoint_dir = store_dir;

    std::size_t completed = 0;
    {
      Daemon daemon(workload, tiny_service(77), options);
      arm_hostile(daemon);
      pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
      ckpt::arm_kill(point, count);
      bool died = false;
      try {
        for (std::size_t i = 0; i < kEpochs; ++i) {
          daemon.step(oracle);
          completed = daemon.epoch_digests().size();
        }
      } catch (const ckpt::InjectedKill&) {
        died = true;
      }
      EXPECT_TRUE(died) << "kill point " << point << " never fired";
    }
    ckpt::disarm_kill();

    // A new process: fresh daemon over the same store. Faults and
    // telemetry ride in the checkpoint; only a cold start installs them.
    Daemon daemon(workload, tiny_service(77), options);
    const auto resumed = daemon.resume();
    if (!resumed.has_value()) arm_hostile(daemon);
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    while (daemon.epoch_digests().size() < kEpochs) {
      daemon.step(oracle);
    }
    (void)completed;
    return daemon.epoch_digests();
  }

  std::string dir_;
  std::vector<std::uint64_t> baseline_;
};

// Every kill point in the daemon loop and the write path, each fired on
// the second traversal (so a real checkpoint already exists on disk and
// the recovery window is non-trivial). One TEST per point keeps ctest
// sharding and failure attribution clean.

TEST_F(DaemonRestartTest, KillAtEpochBegin) {
  EXPECT_EQ(killed_and_resumed(dir_ + "/s", "daemon.epoch.begin", 2),
            baseline_);
}

TEST_F(DaemonRestartTest, KillAtEpochPreCommit) {
  EXPECT_EQ(killed_and_resumed(dir_ + "/s", "daemon.epoch.pre_commit", 2),
            baseline_);
}

TEST_F(DaemonRestartTest, KillAtEpochCommitted) {
  EXPECT_EQ(killed_and_resumed(dir_ + "/s", "daemon.epoch.committed", 2),
            baseline_);
}

TEST_F(DaemonRestartTest, KillAtWriteBegin) {
  EXPECT_EQ(killed_and_resumed(dir_ + "/s", "ckpt.write.begin", 2),
            baseline_);
}

TEST_F(DaemonRestartTest, KillAtWritePartial) {
  EXPECT_EQ(killed_and_resumed(dir_ + "/s", "ckpt.write.partial", 2),
            baseline_);
}

TEST_F(DaemonRestartTest, KillAtWriteBeforeFsync) {
  EXPECT_EQ(killed_and_resumed(dir_ + "/s", "ckpt.write.before_fsync", 2),
            baseline_);
}

TEST_F(DaemonRestartTest, KillAtWriteBeforeRename) {
  EXPECT_EQ(killed_and_resumed(dir_ + "/s", "ckpt.write.before_rename", 2),
            baseline_);
}

TEST_F(DaemonRestartTest, KillAtWriteAfterRename) {
  EXPECT_EQ(killed_and_resumed(dir_ + "/s", "ckpt.write.after_rename", 2),
            baseline_);
}

// First-traversal kill at epoch begin: nothing has ever been written; the
// restart is a cold start and must still match the baseline exactly.
TEST_F(DaemonRestartTest, KillBeforeAnyCheckpointColdStarts) {
  EXPECT_EQ(killed_and_resumed(dir_ + "/s", "daemon.epoch.begin", 1),
            baseline_);
}

// Double kill: die once mid-write, resume, die again in the epoch loop,
// resume again — the lineage survives repeated crashes.
TEST_F(DaemonRestartTest, SurvivesRepeatedKills) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  DaemonOptions options;
  options.checkpoint_dir = dir_ + "/s";

  auto crash_once = [&](const char* point, std::size_t count) {
    Daemon daemon(workload, tiny_service(77), options);
    if (!daemon.resume().has_value()) arm_hostile(daemon);
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    ckpt::arm_kill(point, count);
    try {
      while (daemon.epoch_digests().size() < kEpochs) daemon.step(oracle);
    } catch (const ckpt::InjectedKill&) {
      return;
    }
    FAIL() << point << " never fired";
  };
  crash_once("ckpt.write.before_rename", 1);
  crash_once("daemon.epoch.pre_commit", 1);
  ckpt::disarm_kill();

  Daemon daemon(workload, tiny_service(77), options);
  if (!daemon.resume().has_value()) arm_hostile(daemon);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  while (daemon.epoch_digests().size() < kEpochs) daemon.step(oracle);
  EXPECT_EQ(daemon.epoch_digests(), baseline_);
}

// Disk rot after a clean shutdown: the newest snapshot is truncated while
// the daemon is down. Resume must fall back to the older valid snapshot
// and still converge to the baseline trajectory.
TEST_F(DaemonRestartTest, CorruptNewestSnapshotFallsBackAndRecovers) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  DaemonOptions options;
  options.checkpoint_dir = dir_ + "/s";
  {
    Daemon daemon(workload, tiny_service(77), options);
    arm_hostile(daemon);
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    daemon.run(oracle, 2);  // checkpoint_every=1 → snapshots 1..2 on disk
  }
  // Truncate the newest snapshot in place.
  ckpt::CheckpointStore store(options.checkpoint_dir);
  const auto files = store.list();
  ASSERT_GE(files.size(), 2u);
  const std::string newest = options.checkpoint_dir + "/" + files.back();
  const auto whole = ckpt::read_file(newest);
  ASSERT_TRUE(whole.has_value());
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << whole->substr(0, whole->size() / 2);
  }

  Daemon daemon(workload, tiny_service(77), options);
  const auto resumed = daemon.resume();
  ASSERT_TRUE(resumed.has_value());
  EXPECT_LT(daemon.epoch_digests().size(), 2u)
      << "resume should have fallen back to an older snapshot";
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  while (daemon.epoch_digests().size() < kEpochs) daemon.step(oracle);
  EXPECT_EQ(daemon.epoch_digests(), baseline_);
}

// Churn lane: kill a daemon whose checkpoint additionally carries the
// churn plan, the governor's defer/shed queues, warm-started models, and
// the cumulative governor log. The resumed lineage must reproduce both
// the digest trajectory and the governor log bit-for-bit.
TEST(DaemonChurnRestart, KillMidChurnResumesTrajectoryAndGovernorLog) {
  const std::string dir = make_temp_dir();
  const eva::Workload workload = eva::make_workload(5, 4, 421);

  ServiceOptions service_options = tiny_service(77);
  service_options.continual.warm_start = true;
  service_options.governor.enabled = true;
  service_options.governor.max_streams = workload.num_streams() + 1;

  eva::ChurnOptions churn;
  churn.arrival_rate = 0.8;
  churn.mean_lifetime_epochs = 3.0;
  churn.diurnal_amplitude = 0.3;
  churn.diurnal_period = 6;
  churn.drift_per_epoch = 0.05;
  churn.horizon = 16;
  churn.seed = 909;

  auto cold_start = [&](Daemon& daemon) {
    daemon.service().set_churn_plan(eva::ChurnPlan(churn));
    arm_hostile(daemon);
  };

  std::vector<std::uint64_t> baseline;
  std::vector<GovernorAction> baseline_log;
  {
    DaemonOptions options;
    options.checkpoint_dir = dir + "/baseline";
    Daemon churned(workload, service_options, options);
    cold_start(churned);
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    churned.run(oracle, kEpochs);
    baseline = churned.epoch_digests();
    baseline_log = churned.governor_log();
  }
  ASSERT_EQ(baseline.size(), kEpochs);
  ASSERT_FALSE(baseline_log.empty())
      << "churn scenario never exercised the governor";

  DaemonOptions options;
  options.checkpoint_dir = dir + "/s";
  {
    Daemon daemon(workload, service_options, options);
    cold_start(daemon);
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    ckpt::arm_kill("daemon.epoch.pre_commit", 2);
    bool died = false;
    try {
      for (std::size_t i = 0; i < kEpochs; ++i) daemon.step(oracle);
    } catch (const ckpt::InjectedKill&) {
      died = true;
    }
    EXPECT_TRUE(died);
  }
  ckpt::disarm_kill();

  Daemon daemon(workload, service_options, options);
  const auto resumed = daemon.resume();
  if (!resumed.has_value()) cold_start(daemon);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  while (daemon.epoch_digests().size() < kEpochs) daemon.step(oracle);

  EXPECT_EQ(daemon.epoch_digests(), baseline);
  ASSERT_EQ(daemon.governor_log().size(), baseline_log.size());
  for (std::size_t i = 0; i < baseline_log.size(); ++i) {
    EXPECT_EQ(daemon.governor_log()[i].epoch, baseline_log[i].epoch);
    EXPECT_EQ(daemon.governor_log()[i].stream, baseline_log[i].stream);
    EXPECT_EQ(daemon.governor_log()[i].decision, baseline_log[i].decision);
    EXPECT_EQ(daemon.governor_log()[i].detail, baseline_log[i].detail);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pamo::core
