#include "sched/exact.hpp"

#include <algorithm>
#include <numeric>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "sched/constraints.hpp"
#include "sched/hungarian.hpp"

namespace pamo::sched {

namespace {

struct GroupState {
  std::uint64_t gcd_ticks = 0;
  double proc_sum = 0.0;
  double bits_sum = 0.0;
  std::vector<std::size_t> members;
};

struct Search {
  const eva::Workload* workload = nullptr;
  const std::vector<PeriodicStream>* streams = nullptr;
  const TickClock* clock = nullptr;
  std::size_t num_servers = 0;
  std::size_t max_nodes = 0;

  std::size_t nodes = 0;
  bool budget_exhausted = false;
  double best_cost = 1e300;
  std::vector<std::size_t> best_assignment;  // server index per stream
  bool found = false;

  std::vector<GroupState> groups;
  double max_uplink = 0.0;

  /// Minimum possible communication cost for the current partial state:
  /// every frame's bits over the fastest uplink.
  double cost_lower_bound(std::size_t next_stream) const {
    double bits = 0.0;
    for (const auto& g : groups) bits += g.bits_sum;
    for (std::size_t i = next_stream; i < streams->size(); ++i) {
      bits += (*streams)[i].bits_per_frame;
    }
    return bits / (max_uplink * 1e6);
  }

  void leaf() {
    // Optimal group→server mapping for this grouping.
    std::vector<std::size_t> active;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (!groups[g].members.empty()) active.push_back(g);
    }
    la::Matrix cost(active.size(), num_servers);
    for (std::size_t a = 0; a < active.size(); ++a) {
      for (std::size_t server = 0; server < num_servers; ++server) {
        cost(a, server) = groups[active[a]].bits_sum /
                          (workload->uplink_mbps[server] * 1e6);
      }
    }
    const AssignmentResult mapping = solve_assignment(cost);
    if (mapping.total_cost < best_cost) {
      best_cost = mapping.total_cost;
      best_assignment.assign(streams->size(), 0);
      for (std::size_t a = 0; a < active.size(); ++a) {
        for (std::size_t member : groups[active[a]].members) {
          best_assignment[member] = mapping.col_of[a];
        }
      }
      found = true;
    }
  }

  void recurse(std::size_t stream_idx) {
    if (budget_exhausted) return;
    if (++nodes > max_nodes) {
      budget_exhausted = true;
      return;
    }
    if (stream_idx == streams->size()) {
      leaf();
      return;
    }
    if (cost_lower_bound(stream_idx) >= best_cost - 1e-15) {
      return;  // cannot beat the incumbent
    }
    const auto& stream = (*streams)[stream_idx];
    const std::size_t open_groups = groups.size();

    // Try joining each existing group.
    for (std::size_t g = 0; g < open_groups; ++g) {
      const std::uint64_t new_gcd =
          std::gcd(groups[g].gcd_ticks, stream.period_ticks);
      const double new_proc = groups[g].proc_sum + stream.proc_time;
      if (new_proc > clock->to_seconds(new_gcd) + kJoinTol) continue;
      const GroupState saved = groups[g];
      groups[g].gcd_ticks = new_gcd;
      groups[g].proc_sum = new_proc;
      groups[g].bits_sum += stream.bits_per_frame;
      groups[g].members.push_back(stream_idx);
      recurse(stream_idx + 1);
      groups[g] = saved;
    }
    // Open a new group (symmetry-broken: only the next index).
    if (open_groups < num_servers) {
      groups.push_back({stream.period_ticks, stream.proc_time,
                        stream.bits_per_frame, {stream_idx}});
      recurse(stream_idx + 1);
      groups.pop_back();
    }
  }
};

Search run_search(const eva::Workload& workload, const eva::JointConfig& config,
                  const ExactOptions& options,
                  std::vector<PeriodicStream>& streams_out) {
  streams_out = split_streams(workload, config);
  // Largest processing times first: fails fast on tight instances.
  std::sort(streams_out.begin(), streams_out.end(),
            [](const PeriodicStream& a, const PeriodicStream& b) {
              return a.proc_time > b.proc_time;
            });
  Search search;
  search.workload = &workload;
  search.streams = &streams_out;
  search.clock = &workload.space.clock();
  search.num_servers = workload.num_servers();
  search.max_nodes = options.max_nodes;
  search.max_uplink = *std::max_element(workload.uplink_mbps.begin(),
                                        workload.uplink_mbps.end());
  search.recurse(0);
  return search;
}

}  // namespace

ExactResult schedule_exact(const eva::Workload& workload,
                           const eva::JointConfig& config,
                           const ExactOptions& options) {
  std::vector<PeriodicStream> streams;
  const Search search = run_search(workload, config, options, streams);
  ExactResult result;
  if (!search.found) {
    // Budget exhaustion is "we don't know", not "there is no schedule" —
    // the two used to collapse into one nullopt, which let ablations count
    // hard instances as infeasible.
    result.status =
        search.budget_exhausted ? BnbStatus::kUnknown : BnbStatus::kInfeasible;
  } else {
    result.status = search.budget_exhausted ? BnbStatus::kFeasibleBudget
                                            : BnbStatus::kOptimal;
    // An exact grouping can split a parent across servers, which the
    // per-parent fixed-assignment helper cannot express — assemble the
    // zero-jitter result (Theorem-1 stagger + bookkeeping) directly.
    result.schedule = assemble_zero_jitter(workload, std::move(streams),
                                           search.best_assignment);
  }
  PAMO_ENSURES(result.schedule.has_value() ==
                   (result.status == BnbStatus::kOptimal ||
                    result.status == BnbStatus::kFeasibleBudget),
               "a schedule is returned exactly when the status is feasible");
  return result;
}

}  // namespace pamo::sched
