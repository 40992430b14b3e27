// Extension bench — continual adaptation under stream churn.
//
// Two self-gating lanes (exit nonzero when a gate fails, so analyze.yml
// can run this as a smoke job):
//
//   retention  The reference churn schedule (Poisson arrivals, geometric
//              lifetimes, a diurnal wave, content drift) is played against
//              two SchedulingService instances that differ in exactly one
//              option: continual.warm_start. The cold service re-profiles
//              and re-fits its outcome GPs from scratch every epoch; the
//              warm service transplants the retained model bank and folds
//              in a handful of fresh profiles. Every epoch decision is
//              scored on ground truth against that epoch's offered
//              workload. Gates: the warm service retains >= 90% of the
//              cold service's normalized benefit across steady-state
//              epochs, at <= 50% of its steady-state wall-clock.
//
//   overload   Arrivals that never depart ramp the offered load past the
//              governor's capacity budget. Gates: every epoch stays
//              feasible with no last-known-good fallback, the admission
//              accounting invariant (admitted + deferred + shed ==
//              offered) holds, the admitted floor load respects max_load,
//              shedding grows monotonically instead of collapsing, and
//              the decisions appear in the structured GovernorAction log.
//
// Flags:
//   --smoke    trimmed sizes (CI-friendly; PAMO_BENCH_FAST=1 also works)
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/evaluation.hpp"
#include "core/service.hpp"
#include "eva/churn.hpp"
#include "pref/oracle.hpp"

namespace {

using namespace pamo;

struct Sizes {
  std::size_t streams = 6;
  std::size_t servers = 4;
  std::size_t retention_epochs = 8;  // 1 initial + 7 steady-state
  std::size_t overload_epochs = 10;
};

Sizes smoke_sizes() {
  Sizes s;
  s.streams = 5;
  s.retention_epochs = 4;
  s.overload_epochs = 6;
  return s;
}

/// Reference churn schedule of the retention lane: mild arrivals and
/// departures, a diurnal wave, and steady content drift — enough change
/// per epoch that a from-scratch re-optimizer has real work to do.
eva::ChurnOptions reference_churn(std::size_t horizon) {
  eva::ChurnOptions churn;
  churn.arrival_rate = 0.5;
  churn.mean_lifetime_epochs = 4.0;
  churn.diurnal_amplitude = 0.25;
  churn.diurnal_period = 8;
  churn.drift_per_epoch = 0.04;
  churn.horizon = horizon;
  churn.seed = 4242;
  return churn;
}

/// Shared service budget; `warm` is the ONLY knob that differs between the
/// two retention-lane services, so the benefit and wall-clock deltas are
/// attributable to continual learning alone.
core::ServiceOptions service_preset(bool warm) {
  core::ServiceOptions o;
  o.initial.init_profiles = 40;
  o.initial.init_observations = 4;
  o.initial.mc_samples = 16;
  o.initial.batch_size = 2;
  o.initial.max_iters = 4;
  o.initial.pool.num_quasi_random = 48;
  o.initial.pool.mutations_per_incumbent = 8;
  o.initial.max_pool_feasible = 48;
  o.initial.gp.mle_restarts = 1;
  o.initial.gp.mle_max_evals = 60;
  o.steady = o.initial;
  // The steady-state refit budget is what the warm path amortizes away:
  // the cold service pays this profiling + 5-GP MLE bill every epoch, the
  // warm service transplants the retained bank and folds in warm_profiles
  // fresh samples through the incremental update (no MLE).
  o.steady.init_profiles = 64;
  o.steady.max_iters = 3;
  o.steady.gp.mle_restarts = 2;
  o.steady.gp.mle_max_evals = 120;
  o.pref_pool_size = 16;
  o.initial_comparisons = 10;
  o.continual.warm_start = warm;
  o.continual.warm_profiles = 10;
  o.seed = 7;
  return o;
}

struct EpochScore {
  double u = 0.0;     // ground-truth benefit of the epoch decision
  double ms = 0.0;    // wall-clock of run_epoch
  bool ok = false;    // feasible, no fallback
};

std::vector<EpochScore> run_retention_service(
    bool warm, const eva::Workload& base, const eva::ChurnPlan& plan,
    const pref::BenefitFunction& benefit, std::size_t epochs) {
  core::SchedulingService service(base, service_preset(warm));
  service.set_churn_plan(plan);
  pref::PreferenceOracle oracle(benefit);
  std::vector<EpochScore> scores;
  scores.reserve(epochs);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const double start = bench::now_ms();
    const auto report = service.run_epoch(oracle);
    EpochScore score;
    score.ms = bench::now_ms() - start;
    // Score the decision on ground truth against the workload it was made
    // for: the plan's offered view of this epoch (the governor is off, so
    // offered == scheduled).
    const eva::Workload offered = plan.offered_workload(base, epoch);
    const auto norm = eva::OutcomeNormalizer::for_workload(offered);
    const auto evaluated = core::evaluate_solution(
        offered, report.config, report.schedule, norm, benefit);
    if (report.feasible && !report.health.fallback_taken && evaluated) {
      score.u = evaluated->benefit;
      score.ok = true;
    }
    scores.push_back(score);
  }
  return scores;
}

int run_retention_lane(const Sizes& sizes) {
  const eva::Workload base =
      eva::make_workload(sizes.streams, sizes.servers, 3100);
  const eva::ChurnPlan plan(reference_churn(sizes.retention_epochs));
  const pref::BenefitFunction benefit = pref::BenefitFunction::uniform();

  const auto cold = run_retention_service(/*warm=*/false, base, plan, benefit,
                                          sizes.retention_epochs);
  const auto warm = run_retention_service(/*warm=*/true, base, plan, benefit,
                                          sizes.retention_epochs);

  // Steady-state epochs only: epoch 0 is the same full interview + cold
  // optimization in both services, so it carries no signal about the warm
  // path.
  double cold_norm_sum = 0.0, warm_norm_sum = 0.0;
  double cold_ms = 0.0, warm_ms = 0.0;
  bool all_ok = true;
  TablePrinter table({"epoch", "cold benefit", "warm benefit", "cold ms",
                      "warm ms"});
  for (std::size_t e = 1; e < sizes.retention_epochs; ++e) {
    all_ok = all_ok && cold[e].ok && warm[e].ok;
    const double u_max = std::max(cold[e].u, warm[e].u);
    cold_norm_sum += core::normalized_benefit(cold[e].u, u_max, benefit);
    warm_norm_sum += core::normalized_benefit(warm[e].u, u_max, benefit);
    cold_ms += cold[e].ms;
    warm_ms += warm[e].ms;
    table.add_row({std::to_string(e), format_double(cold[e].u, 4),
                   format_double(warm[e].u, 4), format_double(cold[e].ms, 1),
                   format_double(warm[e].ms, 1)});
  }
  table.print(std::cout, "retention lane (steady-state epochs)");

  const double retention =
      cold_norm_sum > 0.0 ? warm_norm_sum / cold_norm_sum : 0.0;
  const double clock_ratio = cold_ms > 0.0 ? warm_ms / cold_ms : 1.0;
  std::cout << "\nbenefit retention (warm / cold): "
            << format_double(retention, 4)
            << "   wall-clock ratio: " << format_double(clock_ratio, 3)
            << "\n";

  int failures = 0;
  if (!all_ok) {
    std::cout << "GATE FAIL: an epoch was infeasible or fell back\n";
    ++failures;
  }
  if (retention < 0.90) {
    std::cout << "GATE FAIL: benefit retention " << format_double(retention, 4)
              << " < 0.90\n";
    ++failures;
  }
  if (clock_ratio > 0.50) {
    std::cout << "GATE FAIL: warm wall-clock " << format_double(clock_ratio, 3)
              << " of cold > 0.50\n";
    ++failures;
  }
  return failures;
}

int run_overload_lane(const Sizes& sizes) {
  const eva::Workload base =
      eva::make_workload(sizes.streams, sizes.servers, 3200);

  // Arrivals that never depart: the offered set only grows, ramping the
  // floor load monotonically past the governor's budget.
  eva::ChurnOptions ramp;
  ramp.arrival_rate = 1.5;
  ramp.mean_lifetime_epochs = 1e6;
  ramp.horizon = sizes.overload_epochs;
  ramp.seed = 5151;

  // Cap admissions one past the base stream count (stream-count caps bind
  // at any workload scale, unlike a floor-load threshold): the ramp's
  // arrivals overflow the cap within a few epochs and must be deferred,
  // retried with backoff, and eventually shed.
  core::ServiceOptions options = service_preset(/*warm=*/false);
  options.governor.enabled = true;
  options.governor.max_streams = sizes.streams + 1;
  options.governor.hysteresis = 0.1;
  // One retry then shed, so the full defer → backoff → shed arc fits
  // inside the smoke horizon.
  options.governor.max_defer_retries = 1;

  core::SchedulingService service(base, options);
  service.set_churn_plan(eva::ChurnPlan(ramp));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());

  TablePrinter table({"epoch", "offered", "admitted", "deferred", "shed",
                      "offered load", "admitted load", "actions"});
  int failures = 0;
  std::size_t prev_shed = 0;
  std::size_t total_actions = 0;
  bool any_shed_action = false;
  std::size_t final_offered = 0, final_admitted = 0;
  for (std::size_t epoch = 0; epoch < sizes.overload_epochs; ++epoch) {
    const auto report = service.run_epoch(oracle);
    const auto& churn = report.churn;
    table.add_row({std::to_string(epoch), std::to_string(churn.offered),
                   std::to_string(churn.admitted),
                   std::to_string(churn.deferred), std::to_string(churn.shed),
                   format_double(churn.offered_load, 3),
                   format_double(churn.admitted_load, 3),
                   std::to_string(report.governor_actions.size())});
    if (!report.feasible || report.health.fallback_taken) {
      std::cout << "GATE FAIL: epoch " << epoch
                << " infeasible or fell back under overload\n";
      ++failures;
    }
    if (churn.admitted + churn.deferred + churn.shed != churn.offered) {
      std::cout << "GATE FAIL: epoch " << epoch
                << " admission accounting violated\n";
      ++failures;
    }
    if (churn.admitted > options.governor.max_streams) {
      std::cout << "GATE FAIL: epoch " << epoch
                << " admitted more streams than the governor cap\n";
      ++failures;
    }
    if (churn.shed < prev_shed) {
      std::cout << "GATE FAIL: epoch " << epoch
                << " shed count shrank (non-monotone degradation)\n";
      ++failures;
    }
    prev_shed = churn.shed;
    total_actions += report.governor_actions.size();
    for (const auto& action : report.governor_actions) {
      if (action.decision == core::GovernorDecision::kShed) {
        any_shed_action = true;
      }
    }
    final_offered = churn.offered;
    final_admitted = churn.admitted;
  }
  table.print(std::cout, "overload lane (governed admission under a ramp)");

  if (final_offered <= final_admitted) {
    std::cout << "GATE FAIL: the ramp never overloaded the governor "
                 "(offered <= admitted at the final epoch)\n";
    ++failures;
  }
  if (total_actions == 0 || !any_shed_action) {
    std::cout << "GATE FAIL: overload produced no structured governor "
                 "actions (expected admit/defer/shed decisions logged)\n";
    ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = pamo::bench::fast_mode();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: ext_churn_adaptation [--smoke]\n";
      return 2;
    }
  }
  const Sizes sizes = smoke ? smoke_sizes() : Sizes{};

  std::cout << "Extension — continual adaptation under stream churn ("
            << (smoke ? "smoke" : "full") << " sizes)\n\n";
  int failures = run_retention_lane(sizes);
  std::cout << "\n";
  failures += run_overload_lane(sizes);
  if (failures != 0) {
    std::cout << "\n" << failures << " gate(s) failed\n";
    return 1;
  }
  std::cout << "\nall gates passed\n";
  return 0;
}
