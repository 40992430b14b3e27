// Shared SchedulingService fixtures for the unit and integration suites.
#pragma once

#include <cstdint>

#include "core/service.hpp"
#include "eva/workload.hpp"
#include "pref/oracle.hpp"

namespace pamo::core {

/// Small, fast service settings: a few seconds of test time per lineage.
inline ServiceOptions tiny_service(std::uint64_t seed) {
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
  options.steady.init_profiles = 24;
  options.steady.max_iters = 2;
  options.pref_pool_size = 14;
  options.initial_comparisons = 8;
  options.seed = seed;
  return options;
}

/// The second epoch of a fault-free service on `workload`, under a
/// uniform-benefit oracle. A fault plan reaches only the validation
/// simulation, never the optimizer, so this previews the placement a
/// faulted twin's second epoch picks: a test that faults a server of that
/// placement is sure to exercise repair.
inline SchedulingService::EpochReport preview_second_epoch(
    const eva::Workload& workload, const ServiceOptions& options) {
  SchedulingService twin(workload, options);
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  twin.run_epoch(oracle);
  return twin.run_epoch(oracle);
}

}  // namespace pamo::core
