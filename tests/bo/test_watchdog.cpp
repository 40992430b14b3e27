#include "bo/watchdog.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pamo::bo {
namespace {

TEST(Watchdog, DisabledWatchdogNeverBreaches) {
  EpochWatchdog watchdog;  // both budgets off
  EXPECT_FALSE(watchdog.enabled());
  watchdog.arm();
  for (int i = 0; i < 100; ++i) watchdog.record_failure("boom");
  EXPECT_FALSE(watchdog.breached());
  EXPECT_FALSE(watchdog.fired());
  EXPECT_EQ(watchdog.failures(), 100u);
}

TEST(Watchdog, FailureBudgetLatches) {
  WatchdogOptions options;
  options.max_failures = 3;
  EpochWatchdog watchdog(options);
  EXPECT_TRUE(watchdog.enabled());
  watchdog.arm();
  watchdog.record_failure("first");
  watchdog.record_failure("second");
  EXPECT_FALSE(watchdog.breached());
  watchdog.record_failure("third");
  EXPECT_TRUE(watchdog.breached());
  EXPECT_TRUE(watchdog.fired());
  EXPECT_EQ(watchdog.last_error(), "third");
  // Latches until re-armed.
  EXPECT_TRUE(watchdog.breached());
  watchdog.arm();
  EXPECT_FALSE(watchdog.breached());
  EXPECT_EQ(watchdog.failures(), 0u);
}

TEST(Watchdog, TinyDeadlineBreachesImmediately) {
  WatchdogOptions options;
  options.deadline_seconds = 1e-12;
  EpochWatchdog watchdog(options);
  watchdog.arm();
  // Burn a little wall clock so elapsed > deadline deterministically.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  EXPECT_GT(watchdog.elapsed_seconds(), options.deadline_seconds);
  EXPECT_TRUE(watchdog.breached());
}

TEST(Watchdog, NegativeDeadlineIsExhaustedNotDisabled) {
  // Regression: a zero-or-negative remaining budget (e.g. computed by
  // subtracting elapsed time from a total) must mean "already breached".
  // The old enabled()/breached() guards used `> 0.0`, so a negative
  // deadline silently disabled the watchdog entirely.
  WatchdogOptions options;
  options.deadline_seconds = -0.5;
  EpochWatchdog watchdog(options);
  EXPECT_TRUE(watchdog.enabled());
  watchdog.arm();
  EXPECT_TRUE(watchdog.breached());  // immediately, no wall clock needed
  EXPECT_TRUE(watchdog.fired());
  // Latches like any other breach, and re-arming does not help: the
  // budget is still negative.
  watchdog.arm();
  EXPECT_TRUE(watchdog.breached());
}

TEST(Watchdog, ZeroDeadlineStillDisables) {
  // Exactly 0 is the documented "deadline off" default and must keep
  // meaning that — only strictly negative budgets are pre-exhausted.
  WatchdogOptions options;
  options.deadline_seconds = 0.0;
  EpochWatchdog watchdog(options);
  EXPECT_FALSE(watchdog.enabled());
  watchdog.arm();
  EXPECT_FALSE(watchdog.breached());
}

TEST(Watchdog, ArmResetsBudgetBetweenEpochs) {
  // The budgets are per-epoch: every PamoScheduler::run arms a fresh
  // clock/failure-count/latch, so an epoch that burned its whole budget
  // never taxes its successor.
  WatchdogOptions options;
  options.max_failures = 3;
  EpochWatchdog watchdog(options);
  watchdog.arm();
  for (int i = 0; i < 3; ++i) watchdog.record_failure("epoch 1 burn");
  EXPECT_TRUE(watchdog.breached());
  watchdog.arm();
  EXPECT_FALSE(watchdog.breached());
  EXPECT_FALSE(watchdog.fired());
  EXPECT_EQ(watchdog.failures(), 0u);
  watchdog.record_failure("epoch 2, within budget");
  EXPECT_FALSE(watchdog.breached());
}

TEST(Watchdog, UnarmedWatchdogIsInert) {
  WatchdogOptions options;
  options.max_failures = 1;
  EpochWatchdog watchdog(options);
  watchdog.record_failure("x");
  EXPECT_FALSE(watchdog.breached());
  EXPECT_EQ(watchdog.elapsed_seconds(), 0.0);
}

}  // namespace
}  // namespace pamo::bo
