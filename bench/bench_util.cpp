#include "bench_util.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace pamo::bench {

bool fast_mode() {
  const char* env = std::getenv("PAMO_BENCH_FAST");
  return env != nullptr && env[0] != '0';
}

std::size_t repetitions() { return fast_mode() ? 1 : 3; }

double now_ms() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(t).count();
}

obs::json::Value read_baseline(const std::string& path) {
  std::ifstream in(path);
  PAMO_CHECK(in.good(), "cannot read baseline " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return obs::json::Value::parse(buffer.str());
}

void maybe_export_csv(const TablePrinter& table, const std::string& name) {
  const char* dir = std::getenv("PAMO_BENCH_CSV_DIR");
  if (dir == nullptr || dir[0] == 0) return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) return;  // export is best-effort; the stdout tables remain
  table.write_csv(out);
}

const char* method_name(Method method) {
  switch (method) {
    case Method::kJcab: return "JCAB";
    case Method::kFact: return "FACT";
    case Method::kPamo: return "PaMO";
    case Method::kPamoPlus: return "PaMO+";
  }
  return "?";
}

core::PamoOptions pamo_preset(std::uint64_t seed, bool true_preference,
                              double delta) {
  core::PamoOptions options;
  options.seed = seed;
  options.use_true_preference = true_preference;
  options.delta = delta;
  if (fast_mode()) {
    options.init_profiles = 40;
    options.num_comparisons = 12;
    options.pref_pool_size = 16;
    options.init_observations = 4;
    options.mc_samples = 16;
    options.batch_size = 2;
    options.max_iters = 4;
    options.pool.num_quasi_random = 48;
    options.pool.mutations_per_incumbent = 8;
    options.max_pool_feasible = 48;
    options.gp.mle_restarts = 1;
    options.gp.mle_max_evals = 60;
  } else {
    options.init_profiles = 64;
    options.num_comparisons = 18;
    options.pref_pool_size = 28;
    options.init_observations = 6;
    options.mc_samples = 32;
    options.batch_size = 4;
    options.max_iters = 8;
    options.pool.num_quasi_random = 128;
    options.pool.mutations_per_incumbent = 16;
    options.max_pool_feasible = 112;
    options.gp.mle_restarts = 2;
    options.gp.mle_max_evals = 100;
  }
  return options;
}

MethodRun run_method(Method method, const eva::Workload& workload,
                     const std::array<double, eva::kNumObjectives>& weights,
                     std::uint64_t seed, double delta,
                     bo::AcquisitionType acquisition) {
  const eva::OutcomeNormalizer normalizer =
      eva::OutcomeNormalizer::for_workload(workload);
  const pref::BenefitFunction benefit(weights);

  MethodRun run;
  std::optional<core::SolutionScore> score;
  switch (method) {
    case Method::kJcab: {
      baselines::JcabOptions options;
      // Mirror the true preference on JCAB's objectives (acc, energy).
      options.w_accuracy = weights[static_cast<std::size_t>(
          eva::Objective::kAccuracy)];
      options.w_energy =
          weights[static_cast<std::size_t>(eva::Objective::kEnergy)];
      options.delta = delta;
      const auto result = baselines::run_jcab(workload, options);
      if (!result.feasible) return run;
      run.config = result.config;
      run.iterations = result.iterations;
      score = core::evaluate_solution(workload, result.config,
                                      result.schedule, normalizer, benefit);
      break;
    }
    case Method::kFact: {
      baselines::FactOptions options;
      options.w_latency =
          weights[static_cast<std::size_t>(eva::Objective::kLatency)];
      options.w_accuracy =
          weights[static_cast<std::size_t>(eva::Objective::kAccuracy)];
      options.delta = delta;
      const auto result = baselines::run_fact(workload, options);
      if (!result.feasible) return run;
      run.config = result.config;
      run.iterations = result.iterations;
      score = core::evaluate_solution(workload, result.config,
                                      result.schedule, normalizer, benefit);
      break;
    }
    case Method::kPamo:
    case Method::kPamoPlus: {
      core::PamoOptions options =
          pamo_preset(seed, method == Method::kPamoPlus, delta);
      options.acquisition.type = acquisition;
      core::PamoScheduler scheduler(workload, options);
      pref::PreferenceOracle oracle(benefit, {}, seed + 17);
      const auto result = scheduler.run(oracle);
      if (!result.feasible) return run;
      run.config = result.best_config;
      run.iterations = result.iterations;
      score = core::evaluate_solution(workload, result.best_config,
                                      result.best_schedule, normalizer,
                                      benefit);
      break;
    }
  }
  if (!score.has_value()) return run;
  run.feasible = true;
  run.score = *score;
  return run;
}

}  // namespace pamo::bench
