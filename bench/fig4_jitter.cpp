// Figure 4 reproduction + zero-jitter scheduling ablation.
//
// Panel 1: the paper's delay-jitter example — three streams where the
// pairing {1, 2} has divisible periods (no jitter) and the pairing {1, 3}
// does not (jitter), shown with simulated per-frame latencies.
//
// Panel 2 (ablation called out in DESIGN.md): over random feasible
// configurations, compare Algorithm 1 (zero-jitter grouping + staggering)
// against jitter-oblivious First-Fit on simulated jitter, queueing delay,
// and tail latency.
//
// Panel 3: Algorithm 1 vs the exact branch-and-bound engine (sched/bnb)
// on feasibility and communication cost.
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "sched/bnb.hpp"
#include "sched/constraints.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace {
using namespace pamo;

void show_pairing(const eva::Workload& w, const eva::JointConfig& config,
                  const std::vector<std::size_t>& servers,
                  const std::string& label) {
  const auto schedule = sched::schedule_fixed_assignment(w, config, servers);
  const auto report = sim::simulate(w, schedule);
  const bool const2 = sched::const2_holds(
      schedule.streams, schedule.assignment, w.num_servers(), w.space.clock());
  std::cout << label << ": Const2 " << (const2 ? "holds" : "violated")
            << ", max jitter " << format_double(report.max_jitter, 4)
            << " s, queue delay " << format_double(report.total_queue_delay, 4)
            << " s\n";
}

}  // namespace

int main() {
  // ---- Panel 1: the Figure 4 pairings. ----
  {
    eva::Workload w = eva::make_workload(3, 2, 4001);
    // Video 1: fps 10 (period 3 ticks); Video 2: fps 30 (period 1 tick,
    // divides 3); Video 3: fps 6 (period 5 ticks, does NOT divide 3).
    eva::JointConfig config{{960, 10}, {480, 30}, {960, 6}};
    std::cout << "Figure 4 — delay jitter from co-scheduling mismatched "
                 "periods\n";
    // Video 1 + Video 2 on server 0 (divisible periods).
    show_pairing(w, config, {0, 0, 1}, "Video 1+2 (T=3,1 ticks)");
    // Video 1 + Video 3 on server 0 (non-divisible periods).
    show_pairing(w, config, {0, 1, 0}, "Video 1+3 (T=3,5 ticks)");
    std::cout << '\n';
  }

  // ---- Panel 2: Algorithm 1 vs First-Fit ablation. ----
  {
    const eva::Workload w = eva::make_workload(8, 5, 4002);
    Rng rng(99);
    RunningStat jitter_zero, jitter_ff, queue_zero, queue_ff;
    std::vector<double> tail_zero, tail_ff;
    int compared = 0;
    for (int trial = 0; trial < 400 && compared < 60; ++trial) {
      eva::JointConfig config;
      for (std::size_t i = 0; i < w.num_streams(); ++i) {
        config.push_back(w.space.sample(rng));
      }
      const auto zero = sched::schedule_zero_jitter(w, config);
      const auto ff = sched::schedule_first_fit(w, config);
      if (!zero.feasible || !ff.feasible) continue;
      ++compared;
      const auto rz = sim::simulate(w, zero);
      const auto rf = sim::simulate(w, ff);
      jitter_zero.add(rz.max_jitter);
      jitter_ff.add(rf.max_jitter);
      queue_zero.add(rz.total_queue_delay);
      queue_ff.add(rf.total_queue_delay);
      for (const auto& s : rz.per_stream) tail_zero.push_back(s.max_latency);
      for (const auto& s : rf.per_stream) tail_ff.push_back(s.max_latency);
    }
    TablePrinter table({"scheduler", "mean max-jitter (s)",
                        "mean queue delay (s)", "p99 latency (s)"});
    table.add_row({"Algorithm 1 (zero-jitter)",
                   format_double(jitter_zero.mean(), 5),
                   format_double(queue_zero.mean(), 5),
                   format_double(quantile(tail_zero, 0.99), 5)});
    table.add_row({"First-Fit (Const1 only)",
                   format_double(jitter_ff.mean(), 5),
                   format_double(queue_ff.mean(), 5),
                   format_double(quantile(tail_ff, 0.99), 5)});
    table.print(std::cout,
                "Ablation — zero-jitter grouping vs First-Fit over " +
                    std::to_string(compared) + " random feasible configs");
  }

  // ---- Panel 3: Algorithm 1 vs exact branch-and-bound grouping. ----
  {
    const eva::Workload w = eva::make_workload(6, 3, 4003);
    Rng rng(7);
    std::size_t both_feasible = 0;
    std::size_t exact_only = 0;
    std::size_t neither = 0;
    std::size_t unknown = 0;  // budget exhausted: NOT counted as infeasible
    RunningStat cost_gap;  // heuristic comm cost / exact comm cost
    for (int trial = 0; trial < 120; ++trial) {
      eva::JointConfig config;
      for (std::size_t i = 0; i < w.num_streams(); ++i) {
        config.push_back(w.space.sample(rng));
      }
      const auto heuristic = sched::schedule_zero_jitter(w, config);
      const sched::BnbResult exact = sched::schedule_bnb(w, config);
      if (exact.status == sched::BnbStatus::kUnknown ||
          exact.status == sched::BnbStatus::kFeasibleBudget) {
        // An exhausted node budget proves nothing about this instance;
        // folding it into either feasibility column would skew the gap.
        ++unknown;
      } else if (heuristic.feasible && exact.schedule.feasible) {
        ++both_feasible;
        if (exact.schedule.comm_cost > 0) {
          cost_gap.add(heuristic.comm_cost / exact.schedule.comm_cost);
        }
      } else if (exact.schedule.feasible) {
        ++exact_only;
      } else if (!heuristic.feasible) {
        ++neither;
      }
    }
    TablePrinter table({"quantity", "value"});
    table.add_row({"both feasible", std::to_string(both_feasible)});
    table.add_row({"exact feasible, heuristic not", std::to_string(exact_only)});
    table.add_row({"neither feasible", std::to_string(neither)});
    table.add_row({"exact search budget-exhausted", std::to_string(unknown)});
    table.add_row({"mean comm-cost ratio (heuristic / exact)",
                   cost_gap.count() > 0 ? format_double(cost_gap.mean(), 4)
                                        : std::string("-")});
    table.print(std::cout,
                "Ablation — Algorithm 1 vs exact branch-and-bound grouping "
                "(120 random configs, 6 videos, 3 servers)");
  }
  return 0;
}
