#include "eva/telemetry.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace pamo::eva {
namespace {

StreamMeasurement reading(double base = 1.0) {
  StreamMeasurement m;
  m.accuracy = 0.8 * base;
  m.bandwidth_mbps = 4.0 * base;
  m.compute_tflops = 0.3 * base;
  m.power_watts = 25.0 * base;
  m.proc_time = 0.02 * base;
  return m;
}

bool identical(const StreamMeasurement& a, const StreamMeasurement& b) {
  return a.accuracy == b.accuracy && a.bandwidth_mbps == b.bandwidth_mbps &&
         a.compute_tflops == b.compute_tflops &&
         a.power_watts == b.power_watts && a.proc_time == b.proc_time;
}

bool same_bits(const StreamMeasurement& a, const StreamMeasurement& b) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.accuracy) == bits(b.accuracy) &&
         bits(a.bandwidth_mbps) == bits(b.bandwidth_mbps) &&
         bits(a.compute_tflops) == bits(b.compute_tflops) &&
         bits(a.power_watts) == bits(b.power_watts) &&
         bits(a.proc_time) == bits(b.proc_time);
}

TEST(Telemetry, DisabledModelLeavesMeasurementsUntouched) {
  TelemetryCorruption model;  // all rates zero
  EXPECT_FALSE(model.enabled());
  StreamMeasurement m = reading();
  const StreamMeasurement before = m;
  for (std::uint64_t tag = 0; tag < 50; ++tag) {
    EXPECT_TRUE(model.corrupt(m, tag % 3, tag));
    EXPECT_TRUE(identical(m, before));
  }
  EXPECT_EQ(model.counters().total_measurements, 50u);
  EXPECT_EQ(model.counters().corrupted_fields(), 0u);
  EXPECT_EQ(model.counters().dropped_measurements, 0u);
}

TEST(Telemetry, RejectsInvalidOptions) {
  TelemetryCorruptionOptions bad;
  bad.nan_rate = 1.5;
  EXPECT_THROW(TelemetryCorruption{bad}, Error);
  bad = {};
  bad.drop_rate = -0.1;
  EXPECT_THROW(TelemetryCorruption{bad}, Error);
  bad = {};
  bad.outlier_scale = -1.0;
  EXPECT_THROW(TelemetryCorruption{bad}, Error);
}

TEST(Telemetry, IsDeterministicInSeedStreamAndTag) {
  TelemetryCorruptionOptions options;
  options.nan_rate = 0.1;
  options.outlier_rate = 0.2;
  options.drop_rate = 0.1;
  TelemetryCorruption a(options);
  TelemetryCorruption b(options);
  for (std::uint64_t tag = 0; tag < 200; ++tag) {
    StreamMeasurement ma = reading();
    StreamMeasurement mb = reading();
    const bool ka = a.corrupt(ma, tag % 4, tag);
    const bool kb = b.corrupt(mb, tag % 4, tag);
    EXPECT_EQ(ka, kb);
    if (ka) {
      // NaN != NaN, so compare through bit-level equivalence per field.
      EXPECT_TRUE((std::isnan(ma.accuracy) && std::isnan(mb.accuracy)) ||
                  ma.accuracy == mb.accuracy);
      EXPECT_TRUE((std::isnan(ma.proc_time) && std::isnan(mb.proc_time)) ||
                  ma.proc_time == mb.proc_time);
    }
  }
}

TEST(Telemetry, CertainNanRateHitsEveryField) {
  TelemetryCorruptionOptions options;
  options.nan_rate = 1.0;
  TelemetryCorruption model(options);
  StreamMeasurement m = reading();
  ASSERT_TRUE(model.corrupt(m, 0, 0));
  EXPECT_TRUE(std::isnan(m.accuracy));
  EXPECT_TRUE(std::isnan(m.bandwidth_mbps));
  EXPECT_TRUE(std::isnan(m.compute_tflops));
  EXPECT_TRUE(std::isnan(m.power_watts));
  EXPECT_TRUE(std::isnan(m.proc_time));
  EXPECT_EQ(model.counters().nan_fields, 5u);
}

TEST(Telemetry, CertainDropRateLosesEveryReport) {
  TelemetryCorruptionOptions options;
  options.drop_rate = 1.0;
  TelemetryCorruption model(options);
  StreamMeasurement m = reading();
  for (std::uint64_t tag = 0; tag < 10; ++tag) {
    EXPECT_FALSE(model.corrupt(m, 0, tag));
  }
  EXPECT_EQ(model.counters().dropped_measurements, 10u);
  EXPECT_EQ(model.counters().total_measurements, 10u);
}

TEST(Telemetry, StuckAtRepeatsThePreviousTrueReading) {
  TelemetryCorruptionOptions options;
  options.stuck_rate = 1.0;
  TelemetryCorruption model(options);
  StreamMeasurement first = reading(1.0);
  const StreamMeasurement first_truth = first;
  ASSERT_TRUE(model.corrupt(first, /*stream=*/2, /*tag=*/0));
  // No previous reading exists yet, so the first report passes through.
  EXPECT_TRUE(identical(first, first_truth));

  StreamMeasurement second = reading(2.0);
  ASSERT_TRUE(model.corrupt(second, /*stream=*/2, /*tag=*/1));
  // Every field now repeats the stream's previous true value.
  EXPECT_TRUE(identical(second, first_truth));
  EXPECT_EQ(model.counters().stuck_fields, 5u);

  // A different stream has its own stuck-at memory.
  StreamMeasurement other = reading(3.0);
  const StreamMeasurement other_truth = other;
  ASSERT_TRUE(model.corrupt(other, /*stream=*/0, /*tag=*/2));
  EXPECT_TRUE(identical(other, other_truth));
}

TEST(Telemetry, OutliersAreHeavyTailedButFinite) {
  TelemetryCorruptionOptions options;
  options.outlier_rate = 1.0;
  options.outlier_scale = 1.5;
  TelemetryCorruption model(options);
  bool any_large = false;
  for (std::uint64_t tag = 0; tag < 100; ++tag) {
    StreamMeasurement m = reading();
    ASSERT_TRUE(model.corrupt(m, 0, tag));
    EXPECT_TRUE(std::isfinite(m.accuracy));
    EXPECT_GE(m.accuracy, 0.8);  // multiplicative factor is exp(|z|·s) >= 1
    any_large |= m.accuracy > 1.6;  // at least doubled somewhere
  }
  EXPECT_TRUE(any_large);
  EXPECT_EQ(model.counters().outlier_fields, 500u);
}

TEST(Telemetry, ResetCountersClearsTallies) {
  TelemetryCorruptionOptions options;
  options.nan_rate = 1.0;
  TelemetryCorruption model(options);
  StreamMeasurement m = reading();
  model.corrupt(m, 0, 0);
  EXPECT_GT(model.counters().corrupted_fields(), 0u);
  model.reset_counters();
  EXPECT_EQ(model.counters().total_measurements, 0u);
  EXPECT_EQ(model.counters().corrupted_fields(), 0u);
}

TEST(Telemetry, ShardViewCorruptsLikeTheFleetInstanceAndMergesBack) {
  TelemetryCorruptionOptions options;
  options.nan_rate = 0.1;
  options.outlier_rate = 0.2;
  options.stuck_rate = 0.3;
  options.drop_rate = 0.1;
  TelemetryCorruption fleet(options);
  // Stuck-at memory the view must inherit: one earlier reading per stream.
  for (std::size_t id = 0; id < 8; ++id) {
    StreamMeasurement m = reading(1.0 + 0.1 * static_cast<double>(id));
    fleet.corrupt(m, id, 1);
  }
  TelemetryCorruption reference = fleet;  // corrupts in the fleet id space

  const std::vector<std::size_t> ids = {5, 2, 7};
  TelemetryCorruption view = fleet.shard_view(ids);
  EXPECT_EQ(view.counters().total_measurements, 0u);
  for (std::uint64_t tag = 10; tag < 40; ++tag) {
    const std::size_t p = tag % ids.size();
    StreamMeasurement local = reading(2.0 + static_cast<double>(tag));
    StreamMeasurement global = local;
    EXPECT_EQ(view.corrupt(local, p, tag),
              reference.corrupt(global, ids[p], tag));
    EXPECT_TRUE(same_bits(local, global)) << "tag " << tag;
  }
  fleet.merge_shard(view);
  EXPECT_EQ(fleet.counters(), reference.counters());
  EXPECT_EQ(fleet.snapshot().dump(), reference.snapshot().dump());
  EXPECT_THROW(view.merge_shard(view), Error);  // views fold into the fleet
}

}  // namespace
}  // namespace pamo::eva
