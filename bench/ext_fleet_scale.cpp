// Fleet-scale scheduling bench: wall-clock per hierarchical epoch as the
// fleet grows to the north-star size (1k servers / 10k streams), with the
// answer proven unchanged before any time is reported.
//
// Gates (run before timing, on the calibration size):
//   * determinism — the merged fleet schedule digest must be bit-identical
//     between a 1-worker and an 8-worker pool;
//   * partition — every parent stream scheduled exactly once, every server
//     reference inside the fleet, schedule feasible.
//
// Timing then sweeps (servers × streams) jointly and reports per-epoch
// wall-clock. The largest size is the budget lane: with --check, the run
// fails when its epoch exceeds this mode's per-epoch budget_ms (the gate
// analyze.yml's fleet-smoke job enforces), or when any size the baseline
// also records regresses more than 30% against its epoch_ms.
//
// Flags (perf_hot_path conventions):
//   --smoke        small sizes (CI-friendly, a few seconds)
//   --out PATH     write the JSON report (default BENCH_fleet.json)
//   --check PATH   compare against a committed baseline JSON
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/fleet.hpp"
#include "core/report_digest.hpp"
#include "eva/workload.hpp"
#include "pref/oracle.hpp"

namespace {

using namespace pamo;

struct FleetSize {
  std::size_t servers = 0;
  std::size_t streams = 0;
};

std::vector<FleetSize> full_sizes() {
  return {{100, 1000}, {300, 3000}, {1000, 10000}};
}

std::vector<FleetSize> smoke_sizes() { return {{16, 160}, {40, 400}}; }

core::FleetOptions fleet_options(std::uint64_t seed) {
  core::FleetOptions f;
  f.enabled = true;
  f.shard.target_streams = 12;
  f.pamo.seed = seed;
  // Fixed kernel hyperparameters skip the per-shard MLE — the bench times
  // the fleet machinery, not thousands of Nelder–Mead restarts.
  gp::KernelParams params;
  params.log_lengthscales.assign(2, std::log(0.35));
  params.log_signal_var = std::log(1.0);
  params.log_noise_var = std::log(1e-2);
  f.pamo.gp.fixed_params = params;
  return f;
}

struct EpochRun {
  core::PamoResult result;
  core::FleetReport report;
  double ms = 0.0;
};

EpochRun run_epoch(const eva::Workload& workload, std::uint64_t seed,
                   std::size_t workers) {
  ThreadPool pool(workers);
  ThreadPool::ScopedDefault guard(pool);
  const core::FleetOptions options = fleet_options(seed);
  const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  EpochRun run;
  const double start = bench::now_ms();
  run.result = core::run_fleet_epoch(workload, options, oracle, &run.report);
  run.ms = bench::now_ms() - start;
  return run;
}

/// The partition gate: a feasible fleet decision covers every parent
/// stream exactly once and never references a server outside the fleet.
bool partition_holds(const eva::Workload& workload,
                     const core::PamoResult& result) {
  if (!result.feasible) return false;
  if (result.best_config.size() != workload.num_streams()) return false;
  std::set<std::size_t> parents;
  for (const auto& stream : result.best_schedule.streams) {
    parents.insert(stream.parent);
  }
  if (parents.size() != workload.num_streams()) return false;
  for (const std::size_t server : result.best_schedule.assignment) {
    if (server >= workload.num_servers()) return false;
  }
  return true;
}

std::string json_report(const std::string& mode,
                        const std::vector<FleetSize>& sizes,
                        const std::vector<double>& epoch_ms,
                        const std::vector<std::size_t>& shard_counts,
                        double budget_ms) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "{\n"
      << "  \"schema\": \"pamo.fleet_scale.v1\",\n"
      << "  \"mode\": \"" << mode << "\",\n"
      << "  \"budget_ms\": " << budget_ms << ",\n"
      << "  \"sizes\": [\n";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out << "    {\"servers\": " << sizes[i].servers
        << ", \"streams\": " << sizes[i].streams
        << ", \"shards\": " << shard_counts[i]
        << ", \"epoch_ms\": " << epoch_ms[i] << "}"
        << (i + 1 < sizes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

int check_against_baseline(const std::string& path,
                           const std::vector<FleetSize>& sizes,
                           const std::vector<double>& epoch_ms,
                           double budget_ms) {
  struct BaselineSize {
    FleetSize size;
    double ms = 0.0;
  };
  std::vector<BaselineSize> base;
  try {
    const obs::json::Value baseline = bench::read_baseline(path);
    for (const obs::json::Value& entry : baseline.at("sizes").items()) {
      base.push_back({{entry.at("servers").as_uint(),
                       entry.at("streams").as_uint()},
                      entry.at("epoch_ms").as_double()});
    }
  } catch (const Error& e) {
    std::cerr << "ext_fleet_scale: unusable baseline " << path << ": "
              << e.what() << "\n";
    return 2;
  }
  int status = 0;
  // The budget gate applies to the largest size of *this* run at this
  // run's own budget — in smoke mode a structural regression (a flat
  // O(n³) GP sneaking back in, a quadratic merge) blows the 10 s budget
  // long before the full sizes would even finish.
  if (epoch_ms.back() > budget_ms) {
    std::cerr << "ext_fleet_scale: per-epoch budget exceeded at the largest "
                 "size: "
              << epoch_ms.back() << " ms > budget " << budget_ms << " ms\n";
    status = 1;
  }
  // Per-size regression gate against baseline entries with the same
  // (servers, streams) shape; sizes the baseline does not record (e.g. a
  // smoke run checked against the committed full baseline) are skipped.
  constexpr double kTolerance = 1.3;  // fail on >30% wall-clock regression
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    for (const BaselineSize& b : base) {
      if (b.size.servers != sizes[i].servers ||
          b.size.streams != sizes[i].streams) {
        continue;
      }
      if (epoch_ms[i] > b.ms * kTolerance) {
        std::cerr << "ext_fleet_scale: size " << sizes[i].servers << "/"
                  << sizes[i].streams << " regressed: " << epoch_ms[i]
                  << " ms vs baseline " << b.ms << " ms\n";
        status = 1;
      }
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_fleet.json";
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::cerr << "usage: ext_fleet_scale [--smoke] [--out FILE] "
                   "[--check BASELINE]\n";
      return 2;
    }
  }
  const std::vector<FleetSize> sizes = smoke ? smoke_sizes() : full_sizes();
  constexpr std::uint64_t kSeed = 0xF1EE7;

  // ---- Gates on the calibration (smallest) size. ----
  const eva::Workload calib = eva::make_fleet_workload(
      sizes.front().streams, sizes.front().servers, kSeed);
  const EpochRun serial = run_epoch(calib, kSeed, /*workers=*/1);
  const EpochRun wide = run_epoch(calib, kSeed, /*workers=*/8);
  if (!partition_holds(calib, serial.result)) {
    std::cerr << "ext_fleet_scale: partition invariant failed — the merged "
                 "decision does not cover the fleet exactly once\n";
    return 1;
  }
  const std::uint64_t digest_serial =
      core::digest_schedule(serial.result.best_schedule);
  const std::uint64_t digest_wide =
      core::digest_schedule(wide.result.best_schedule);
  if (digest_serial != digest_wide) {
    std::cerr << "ext_fleet_scale: schedule digest differs between 1 and 8 "
                 "worker threads — determinism broken, refusing to time\n";
    return 1;
  }

  // ---- Timed sweep: one epoch per size, default pool. ----
  std::vector<double> epoch_ms;
  std::vector<std::size_t> shard_counts;
  std::cout << "fleet epoch wall-clock (" << (smoke ? "smoke" : "full")
            << " sizes)\n";
  for (const FleetSize& size : sizes) {
    const eva::Workload workload =
        eva::make_fleet_workload(size.streams, size.servers, kSeed);
    core::FleetReport report;
    const core::FleetOptions options = fleet_options(kSeed);
    const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    const double start = bench::now_ms();
    const core::PamoResult result =
        core::run_fleet_epoch(workload, options, oracle, &report);
    const double ms = bench::now_ms() - start;
    if (!partition_holds(workload, result)) {
      std::cerr << "ext_fleet_scale: infeasible or incomplete decision at "
                << size.servers << " servers / " << size.streams
                << " streams\n";
      return 1;
    }
    epoch_ms.push_back(ms);
    shard_counts.push_back(report.plan.num_shards());
    std::cout << "  servers=" << size.servers << " streams=" << size.streams
              << " shards=" << report.plan.num_shards() << "  epoch "
              << ms << " ms\n";
  }

  // Committed budget for the north-star lane: ~15x the single-core time
  // observed on the baseline machine (3.4 s at 1k/10k), so machine noise
  // never trips it but an accidental O(n³) path (a flat GP sneaking back
  // in, a quadratic merge) does.
  const double budget_ms = smoke ? 10.0e3 : 60.0e3;
  const std::string report_text =
      json_report(smoke ? "smoke" : "full", sizes, epoch_ms, shard_counts,
                  budget_ms);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "ext_fleet_scale: cannot write " << out_path << "\n";
    return 2;
  }
  out << report_text;
  std::cout << "wrote " << out_path << "\n";

  if (!check_path.empty()) {
    return check_against_baseline(check_path, sizes, epoch_ms, budget_ms);
  }
  return 0;
}
