// Figure 7 reproduction: normalized benefit under different server and
// video numbers (§5.2). Set 1: 10 videos, servers 5→9. Set 2: 5 servers,
// videos 7→11. Uniform preference weights; uplinks drawn from the §5.2
// set. Benefits normalized against PaMO+ per configuration.
//
// Set 3 goes past the paper's axes: (servers × streams) scale *jointly*
// through the hierarchical fleet path (core/fleet.hpp), and the table
// reports per-epoch wall-clock next to the achieved benefit — the
// scalability story is the flat O(M) axes above plus this joint axis.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"

namespace {
using namespace pamo;
using bench::Method;

void sweep(const std::string& title, const std::string& csv_name,
           const std::vector<std::pair<std::size_t, std::size_t>>& settings,
           double& best_vs_jcab, double& best_vs_fact) {
  const std::array<double, eva::kNumObjectives> weights{1, 1, 1, 1, 1};
  const pref::BenefitFunction benefit(weights);
  const std::vector<Method> methods{Method::kJcab, Method::kFact,
                                    Method::kPamo, Method::kPamoPlus};
  TablePrinter table({"videos", "servers", "JCAB", "FACT", "PaMO", "PaMO+",
                      "PaMO err vs PaMO+ (%)"});
  for (const auto& [videos, servers] : settings) {
    std::array<RunningStat, 4> stats;
    for (std::size_t rep = 0; rep < bench::repetitions(); ++rep) {
      const eva::Workload workload =
          eva::make_workload(videos, servers, 700 + rep * 31 + videos * 7 +
                                                  servers);
      for (std::size_t m = 0; m < methods.size(); ++m) {
        const auto run = bench::run_method(
            methods[m], workload, weights,
            7000 + rep * 113 + videos * 11 + servers * 3 + m);
        if (run.feasible) stats[m].add(run.score.benefit);
      }
    }
    const double u_plus = stats[3].count() > 0 ? stats[3].mean() : 0.0;
    std::array<double, 4> norm{};
    std::vector<std::string> row{std::to_string(videos),
                                 std::to_string(servers)};
    for (std::size_t m = 0; m < 4; ++m) {
      norm[m] = stats[m].count() > 0
                    ? core::normalized_benefit(stats[m].mean(), u_plus,
                                               benefit)
                    : 0.0;
      row.push_back(format_double(norm[m], 4));
    }
    row.push_back(format_double((1.0 - norm[2]) * 100.0, 3));
    table.add_row(row);
    if (norm[0] > 0) {
      best_vs_jcab = std::max(best_vs_jcab, (norm[2] - norm[0]) / norm[0]);
    }
    if (norm[1] > 0) {
      best_vs_fact = std::max(best_vs_fact, (norm[2] - norm[1]) / norm[1]);
    }
  }
  table.print(std::cout, title);
  bench::maybe_export_csv(table, csv_name);
  std::cout << '\n';
}

/// Set 3: joint (servers × streams) scaling through the hierarchical
/// scheduler, with per-epoch wall-clock.
void joint_scaling() {
  const std::array<double, eva::kNumObjectives> weights{1, 1, 1, 1, 1};
  const pref::BenefitFunction benefit(weights);
  TablePrinter table(
      {"streams", "servers", "shards", "fleet benefit", "epoch (ms)"});
  const std::vector<std::pair<std::size_t, std::size_t>> settings{
      {40, 8}, {80, 16}, {160, 32}, {320, 64}};
  for (const auto& [streams, servers] : settings) {
    const eva::Workload workload =
        eva::make_fleet_workload(streams, servers, 900 + streams);
    core::FleetOptions options;
    options.enabled = true;
    options.pamo.seed = 9000 + streams * 3 + servers;
    core::FleetReport report;
    const pref::PreferenceOracle oracle(benefit);
    const double start = bench::now_ms();
    const core::PamoResult result =
        core::run_fleet_epoch(workload, options, oracle, &report);
    const double epoch_ms = bench::now_ms() - start;
    double score = 0.0;
    if (result.feasible) {
      const auto normalizer = eva::OutcomeNormalizer::for_workload(workload);
      const auto evaluated =
          core::evaluate_solution(workload, result.best_config,
                                  result.best_schedule, normalizer, benefit);
      if (evaluated.has_value()) score = evaluated->benefit;
    }
    table.add_row({std::to_string(streams), std::to_string(servers),
                   std::to_string(report.plan.num_shards()),
                   format_double(score, 4), format_double(epoch_ms, 1)});
  }
  table.print(std::cout,
              "set 3: joint (servers x streams) scaling, hierarchical path");
  bench::maybe_export_csv(table, "fig7_joint");
  std::cout << '\n';
}

}  // namespace

int main() {
  std::cout << "Figure 7 — normalized benefit vs server and video numbers ("
            << bench::repetitions() << " reps)\n\n";
  double best_vs_jcab = -1e300;
  double best_vs_fact = -1e300;
  sweep("set 1: 10 videos, varying servers", "fig7_servers",
        {{10, 5}, {10, 6}, {10, 7}, {10, 8}, {10, 9}}, best_vs_jcab,
        best_vs_fact);
  sweep("set 2: 5 servers, varying videos", "fig7_videos",
        {{7, 5}, {8, 5}, {9, 5}, {10, 5}, {11, 5}}, best_vs_jcab,
        best_vs_fact);
  joint_scaling();
  std::cout << "headline: max PaMO improvement vs JCAB "
            << format_double(best_vs_jcab * 100.0, 1) << "% (paper: up to "
            << "53.9%), vs FACT " << format_double(best_vs_fact * 100.0, 1)
            << "% (paper: up to 16.6% in this figure)\n";
  return 0;
}
