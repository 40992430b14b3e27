// Fleet routing inside SchedulingService and the determinism contract of
// run_fleet_epoch: the hierarchical epoch is bit-identical at any worker
// count (per-shard seeds come from shard indices, never threads), also
// under telemetry corruption, a fan-out-unsafe preference configuration is
// rejected up front, epochs below min_streams stay bit-for-bit on the flat
// path, and fleet-routed service epochs reproduce digest-for-digest across
// independent services. One fleet epoch fits one shared outcome bank and
// counts its diagnostics once, and its metric series do not grow with the
// shard count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/fleet.hpp"
#include "core/report_digest.hpp"
#include "core/service.hpp"
#include "eva/telemetry.hpp"
#include "eva/workload.hpp"
#include "obs/obs.hpp"
#include "pref/oracle.hpp"

namespace pamo::core {
namespace {

FleetOptions small_fleet(std::uint64_t seed) {
  FleetOptions fleet;
  fleet.enabled = true;
  fleet.min_streams = 8;
  fleet.shard.target_streams = 4;
  fleet.pamo.seed = seed;
  return fleet;
}

ServiceOptions fleet_service(std::uint64_t seed) {
  ServiceOptions options;
  options.initial.init_profiles = 32;
  options.initial.init_observations = 3;
  options.initial.mc_samples = 12;
  options.initial.batch_size = 2;
  options.initial.max_iters = 3;
  options.initial.pool.num_quasi_random = 32;
  options.initial.pool.mutations_per_incumbent = 6;
  options.initial.max_pool_feasible = 32;
  options.initial.gp.mle_restarts = 1;
  options.initial.gp.mle_max_evals = 50;
  options.steady = options.initial;
  options.pref_pool_size = 14;
  options.initial_comparisons = 8;
  options.fleet = small_fleet(seed);
  options.seed = seed;
  return options;
}

TEST(ServiceFleet, FleetEpochIsBitIdenticalAcrossWorkerCounts) {
  const eva::Workload workload = eva::make_fleet_workload(20, 6, 501);
  const FleetOptions options = small_fleet(17);
  const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());

  PamoResult serial;
  FleetReport serial_report;
  {
    ThreadPool pool(1);
    ThreadPool::ScopedDefault guard(pool);
    serial = run_fleet_epoch(workload, options, oracle, &serial_report);
  }
  PamoResult wide;
  FleetReport wide_report;
  {
    ThreadPool pool(8);
    ThreadPool::ScopedDefault guard(pool);
    wide = run_fleet_epoch(workload, options, oracle, &wide_report);
  }
  ASSERT_TRUE(serial.feasible);
  ASSERT_TRUE(wide.feasible);
  EXPECT_EQ(digest_schedule(serial.best_schedule),
            digest_schedule(wide.best_schedule));
  EXPECT_EQ(serial.best_config, wide.best_config);
  ASSERT_EQ(serial.benefit_trace.size(), wide.benefit_trace.size());
  for (std::size_t i = 0; i < serial.benefit_trace.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.benefit_trace[i]),
              std::bit_cast<std::uint64_t>(wide.benefit_trace[i]));
  }
  ASSERT_EQ(serial_report.shards.size(), wide_report.shards.size());
  for (std::size_t s = 0; s < serial_report.shards.size(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial_report.shards[s].benefit),
              std::bit_cast<std::uint64_t>(wide_report.shards[s].benefit));
  }
}

TEST(ServiceFleet, MergedDecisionCoversFleetAndTraceIsSingleEntry) {
  const eva::Workload workload = eva::make_fleet_workload(16, 5, 502);
  const FleetOptions options = small_fleet(23);
  const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  FleetReport report;
  const PamoResult result = run_fleet_epoch(workload, options, oracle, &report);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.best_config.size(), workload.num_streams());
  // The fleet path's signature: one merged benefit entry, not a per-BO-
  // iteration trajectory.
  EXPECT_EQ(result.benefit_trace.size(), 1u);
  EXPECT_GT(report.plan.num_shards(), 1u);
  ASSERT_EQ(report.shards.size(), report.plan.num_shards());
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    EXPECT_TRUE(report.shards[s].feasible);
    EXPECT_EQ(report.shards[s].streams, report.plan.stream_ids[s].size());
    EXPECT_EQ(report.shards[s].servers, report.plan.server_ids[s].size());
  }
}

TEST(ServiceFleet, RejectsFanOutUnsafePreferenceOptions) {
  const eva::Workload workload = eva::make_fleet_workload(16, 5, 503);
  FleetOptions options = small_fleet(29);
  // Learned preference without a frozen shared learner would train one
  // model per shard against a mutable oracle — not fan-out safe.
  options.pamo.use_true_preference = false;
  const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  EXPECT_THROW(run_fleet_epoch(workload, options, oracle), Error);
}

TEST(ServiceFleet, BelowMinStreamsStaysBitIdenticalToFlatService) {
  const eva::Workload workload = eva::make_workload(5, 4, 71);
  ServiceOptions with_fleet = fleet_service(3);
  with_fleet.fleet.min_streams = 100;  // never reached by 5 streams
  ServiceOptions without_fleet = fleet_service(3);
  without_fleet.fleet.enabled = false;
  SchedulingService a(workload, with_fleet);
  SchedulingService b(workload, without_fleet);
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto ra = a.run_epoch(oracle_a);
    const auto rb = b.run_epoch(oracle_b);
    EXPECT_EQ(digest_epoch(ra), digest_epoch(rb)) << "epoch " << epoch;
  }
  EXPECT_EQ(a.snapshot().dump(), b.snapshot().dump());
}

TEST(ServiceFleet, FleetRoutedEpochsReproduceAcrossServices) {
  const eva::Workload workload = eva::make_fleet_workload(12, 5, 504);
  SchedulingService a(workload, fleet_service(41));
  SchedulingService b(workload, fleet_service(41));
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto ra = a.run_epoch(oracle_a);
    const auto rb = b.run_epoch(oracle_b);
    ASSERT_TRUE(ra.feasible) << "epoch " << epoch;
    // Fleet routing engaged: single-entry merged trace, full coverage.
    EXPECT_EQ(ra.benefit_trace.size(), 1u);
    EXPECT_EQ(ra.config.size(), workload.num_streams());
    EXPECT_EQ(digest_epoch(ra), digest_epoch(rb)) << "epoch " << epoch;
  }
}

TEST(ServiceFleet, TelemetryCorruptedFleetIsWorkerIndependent) {
  // Shards corrupt telemetry concurrently; each must do so through its own
  // view keyed by fleet stream id, or the draws, the stuck-at memory and
  // the counters depend on the interleaving.
  const eva::Workload workload = eva::make_fleet_workload(24, 8, 506);
  eva::TelemetryCorruptionOptions rates;
  rates.nan_rate = 0.03;
  rates.outlier_rate = 0.05;
  rates.stuck_rate = 0.1;
  rates.drop_rate = 0.03;
  struct Run {
    std::vector<std::uint64_t> digests;
    eva::CorruptionCounters counters;
  };
  auto run = [&](std::size_t workers) {
    ThreadPool pool(workers);
    ThreadPool::ScopedDefault guard(pool);
    SchedulingService service(workload, fleet_service(43));
    service.set_telemetry_corruption(rates);
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    Run out;
    for (int epoch = 0; epoch < 3; ++epoch) {
      const auto report = service.run_epoch(oracle);
      EXPECT_EQ(report.benefit_trace.size(), 1u) << "fleet routing engaged";
      out.digests.push_back(digest_epoch(report));
    }
    out.counters = service.telemetry_corruption()->counters();
    return out;
  };
  const Run serial = run(1);
  const Run wide = run(8);
  EXPECT_EQ(serial.digests, wide.digests);
  EXPECT_EQ(serial.counters, wide.counters);
  EXPECT_GT(serial.counters.corrupted_fields(), 0u);
}

/// What one fleet epoch over `workload` with shards of about `target`
/// streams records: the shard count, the gp.fits counter, and the number
/// of metric series it wrote (the registry keeps every name any earlier
/// test registered, so only series holding a value count).
struct FleetEpochObs {
  std::size_t shards = 0;
  std::uint64_t gp_fits = 0;
  std::size_t series = 0;
};

FleetEpochObs observe_fleet_epoch(const eva::Workload& workload,
                                  std::size_t target) {
  FleetOptions options = small_fleet(31);
  options.shard.target_streams = target;
  const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const obs::ScopedEnable obs_on;
  FleetReport report;
  const PamoResult result = run_fleet_epoch(workload, options, oracle, &report);
  EXPECT_TRUE(result.feasible);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  FleetEpochObs out;
  out.shards = report.plan.num_shards();
  for (const auto& [name, value] : snap.counters) {
    if (name == "gp.fits") out.gp_fits = value;
    if (value > 0) ++out.series;
  }
  for (const auto& [name, value] : snap.gauges) {
    if (value != 0.0) ++out.series;
  }
  for (const auto& histogram : snap.histograms) {
    if (histogram.count > 0) ++out.series;
  }
  return out;
}

TEST(ServiceFleet, FitsOneSharedOutcomeBankPerEpoch) {
  const eva::Workload workload = eva::make_fleet_workload(24, 8, 507);
  for (const std::size_t target : {8u, 3u}) {
    const FleetEpochObs epoch = observe_fleet_epoch(workload, target);
    EXPECT_GE(epoch.shards, target == 8 ? 3u : 8u);
    // One bank of kNumMetrics GPs for the whole fleet; shards only update.
    EXPECT_EQ(epoch.gp_fits, kNumMetrics) << epoch.shards << " shards";
  }
}

TEST(ServiceFleet, MetricSeriesCountDoesNotGrowWithShards) {
  const eva::Workload workload = eva::make_fleet_workload(24, 8, 507);
  const FleetEpochObs few = observe_fleet_epoch(workload, 8);
  const FleetEpochObs many = observe_fleet_epoch(workload, 3);
  ASSERT_GE(few.shards, 3u);
  ASSERT_GE(many.shards, 8u);
  EXPECT_EQ(few.series, many.series);
}

TEST(ServiceFleet, BankRejectionsCountOnceAndEpochIsNotWarmStarted) {
  const eva::Workload workload = eva::make_fleet_workload(24, 8, 508);
  constexpr std::uint64_t kSeed = 37;
  eva::TelemetryCorruptionOptions rates;
  rates.nan_rate = 0.01;
  rates.seed = 3;  // one NaN among the bank's 24 × 5 fields (checked below)
  const FleetOptions base = small_fleet(kSeed);
  // The bank's own profiles carry exactly one non-finite field, so the
  // bank fit rejects exactly one metric row.
  {
    eva::TelemetryCorruption replay(rates);
    Rng rng(kSeed);
    const Phase1Profiles profiles =
        profile_phase1(workload, base.pamo.init_profiles, rng, &replay,
                       kFleetBankTelemetryTag);
    ASSERT_EQ(replay.counters().nan_fields, 1u);
    ASSERT_EQ(profiles.dropped, 0u);
  }
  for (const std::size_t target : {8u, 3u}) {
    eva::TelemetryCorruption telemetry(rates);
    FleetOptions options = base;
    options.shard.target_streams = target;
    // Shards add no Phase-1 rows of their own, and their Phase-3 NaN
    // fields are repaired, never fed: the bank's row is the only one any
    // GP rejects this epoch.
    options.pamo.warm_profiles = 0;
    options.pamo.telemetry = &telemetry;
    const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    FleetReport report;
    const PamoResult result =
        run_fleet_epoch(workload, options, oracle, &report);
    EXPECT_EQ(result.health.samples_rejected, 1u)
        << report.plan.num_shards() << " shards";
    EXPECT_FALSE(result.health.warm_started);
  }
}

}  // namespace
}  // namespace pamo::core
