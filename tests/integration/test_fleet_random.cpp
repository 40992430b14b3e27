// Randomized fleet survival sweep: 50 seeded fleet workloads of varying
// shape run through the full service stack with the hierarchical path,
// stream churn, fault injection, and the admission governor all on. Per
// epoch the suite asserts the invariants that must survive any seed — no
// escaped exception, admission accounting conservation
// (admitted + deferred + shed == offered), decisions that cover exactly
// the admitted set — and, on a sub-sample of seeds, digest-for-digest
// reproducibility against an independently constructed twin service.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/report_digest.hpp"
#include "core/service.hpp"
#include "eva/churn.hpp"
#include "eva/workload.hpp"
#include "pref/oracle.hpp"
#include "sim/fault.hpp"

namespace pamo::core {
namespace {

constexpr std::size_t kSeeds = 50;
constexpr std::size_t kEpochs = 2;

ServiceOptions fleet_service(std::uint64_t seed) {
  ServiceOptions options;
  options.initial.init_profiles = 24;
  options.initial.init_observations = 3;
  options.initial.mc_samples = 8;
  options.initial.batch_size = 2;
  options.initial.max_iters = 2;
  options.initial.pool.num_quasi_random = 24;
  options.initial.pool.mutations_per_incumbent = 4;
  options.initial.max_pool_feasible = 24;
  options.initial.gp.mle_restarts = 1;
  options.initial.gp.mle_max_evals = 40;
  options.steady = options.initial;
  options.pref_pool_size = 12;
  options.initial_comparisons = 6;
  options.fleet.enabled = true;
  options.fleet.min_streams = 6;
  options.fleet.shard.target_streams = 4;
  options.fleet.pamo.init_profiles = 16;
  options.fleet.pamo.mc_samples = 8;
  options.fleet.pamo.max_iters = 2;
  options.fleet.pamo.max_pool_feasible = 24;
  // Fixed kernel hyperparameters: the sweep exercises the fleet plumbing
  // across 50 seeds, not 50 hyperparameter searches.
  gp::KernelParams params;
  params.log_lengthscales.assign(2, std::log(0.35));
  params.log_signal_var = std::log(1.0);
  params.log_noise_var = std::log(1e-2);
  options.fleet.pamo.gp.fixed_params = params;
  options.governor.enabled = true;
  options.governor.max_load = 0.85;
  options.seed = seed;
  return options;
}

eva::ChurnPlan lively_churn(std::uint64_t seed) {
  eva::ChurnOptions churn;
  churn.arrival_rate = 0.6;
  churn.mean_lifetime_epochs = 3;
  churn.diurnal_amplitude = 0.25;
  churn.diurnal_period = 4;
  churn.drift_per_epoch = 0.04;
  churn.seed = seed;
  churn.horizon = 8;
  return eva::ChurnPlan(churn);
}

sim::FaultPlan hostile_plan(std::uint64_t seed, std::size_t servers) {
  sim::FaultPlan plan;
  if (seed % 3 == 0) plan.kill_server(seed % servers, 1.0);
  if (seed % 4 == 0) plan.drop_frames(0.1, 3);
  if (seed % 5 == 0) plan.slow_server((seed / 2) % servers, 0.5, 2.0);
  return plan;
}

/// One fully-armed service over the seed's workload shape.
SchedulingService armed_service(std::uint64_t seed) {
  const std::size_t streams = 8 + seed % 9;  // 8..16
  const std::size_t servers = 4 + seed % 5;  // 4..8
  const eva::Workload workload =
      eva::make_fleet_workload(streams, servers, 0xF00D + seed);
  SchedulingService service(workload, fleet_service(seed));
  service.set_churn_plan(lively_churn(0xC0DE + seed));
  service.set_fault_plan(hostile_plan(seed, servers));
  return service;
}

void expect_epoch_invariants(const SchedulingService::EpochReport& report,
                             std::uint64_t seed) {
  // Accounting conservation — the governor may defer or shed under the
  // churned load, but every offered stream must be accounted for.
  EXPECT_EQ(report.churn.admitted + report.churn.deferred + report.churn.shed,
            report.churn.offered)
      << "seed " << seed << " epoch " << report.epoch;
  if (report.feasible && !report.fallback) {
    EXPECT_EQ(report.config.size(), report.churn.admitted)
        << "seed " << seed << " epoch " << report.epoch;
    EXPECT_EQ(report.schedule.latency_per_parent.size(),
              report.churn.admitted);
    for (const double latency : report.schedule.latency_per_parent) {
      EXPECT_TRUE(std::isfinite(latency));
    }
  }
}

TEST(FleetRandom, FiftySeededFleetsSurviveChurnFaultsAndGovernor) {
  std::size_t feasible_epochs = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SchedulingService service = armed_service(seed);
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      SchedulingService::EpochReport report;
      // The service contract: errors are absorbed into health, never
      // thrown. A crash on any of the 50 seeds fails here.
      ASSERT_NO_THROW(report = service.run_epoch(oracle))
          << "seed " << seed << " epoch " << epoch;
      expect_epoch_invariants(report, seed);
      if (report.feasible) ++feasible_epochs;
    }
  }
  // Churn and faults may sink individual epochs, but the stack must not
  // be degenerately infeasible across the sweep.
  EXPECT_GE(feasible_epochs, kSeeds * kEpochs / 2);
}

TEST(FleetRandom, SampledSeedsReproduceDigestForDigest) {
  // Every 10th seed runs twice from independent constructions; any hidden
  // nondeterminism in the fleet fan-out, churn overlay, governor state, or
  // repair loop shows up as a digest mismatch.
  for (std::uint64_t seed = 0; seed < kSeeds; seed += 10) {
    SchedulingService a = armed_service(seed);
    SchedulingService b = armed_service(seed);
    pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
    pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      const auto ra = a.run_epoch(oracle_a);
      const auto rb = b.run_epoch(oracle_b);
      EXPECT_EQ(digest_epoch(ra), digest_epoch(rb))
          << "seed " << seed << " epoch " << epoch;
    }
  }
}

}  // namespace
}  // namespace pamo::core
