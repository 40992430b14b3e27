#include "sched/scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"
#include "sched/constraints.hpp"
#include "sched/hungarian.hpp"

namespace pamo::sched {

namespace {

/// Finalize bookkeeping shared by both schedulers: phases, per-parent
/// uplinks and jitter-free latencies, and the communication cost.
/// `stagger` enables the Theorem-1 start-offset staggering (the zero-jitter
/// scheduler's trick); First-Fit is jitter-oblivious and leaves phases at 0.
/// `proc_headroom` widens the stagger spacing for straggler-aware repair
/// schedules; the Eq. 5 latency bookkeeping always uses nominal times.
void finalize(const eva::Workload& workload, ScheduleResult& result,
              bool stagger, double proc_headroom = 1.0) {
  const std::size_t num_parents = workload.num_streams();
  const std::size_t num_servers = workload.num_servers();

  // Stagger start offsets per server in assignment order (Theorem 1 proof:
  // o(τ_k) = Σ_{i<k} p_i within each co-scheduled set). The offsets apply
  // to *arrival at the server*, so each camera's emission phase compensates
  // its own uplink transfer time; a per-server shift keeps phases >= 0.
  result.phase.assign(result.streams.size(), 0.0);
  if (stagger) {
    std::vector<double> server_offset(num_servers, 0.0);
    std::vector<double> min_phase(num_servers, 0.0);
    for (std::size_t i = 0; i < result.streams.size(); ++i) {
      const std::size_t server = result.assignment[i];
      const double transfer = result.streams[i].bits_per_frame /
                              (workload.uplink_mbps[server] * 1e6);
      result.phase[i] = server_offset[server] - transfer;
      min_phase[server] = std::min(min_phase[server], result.phase[i]);
      server_offset[server] += result.streams[i].proc_time * proc_headroom;
    }
    for (std::size_t i = 0; i < result.streams.size(); ++i) {
      result.phase[i] -= min_phase[result.assignment[i]];
    }
  }

  result.uplink_per_parent.assign(num_parents, 0.0);
  result.latency_per_parent.assign(num_parents, 0.0);
  std::vector<double> parts(num_parents, 0.0);
  result.comm_cost = 0.0;
  for (std::size_t i = 0; i < result.streams.size(); ++i) {
    const auto& s = result.streams[i];
    const double uplink = workload.uplink_mbps[result.assignment[i]];
    const double net_latency = s.bits_per_frame / (uplink * 1e6);
    result.uplink_per_parent[s.parent] += uplink;
    result.latency_per_parent[s.parent] += s.proc_time + net_latency;
    result.comm_cost += net_latency;
    parts[s.parent] += 1.0;
  }
  for (std::size_t parent = 0; parent < num_parents; ++parent) {
    PAMO_ASSERT(parts[parent] > 0, "parent stream lost during scheduling");
    result.uplink_per_parent[parent] /= parts[parent];
    result.latency_per_parent[parent] /= parts[parent];
  }
  // Shape contract every scheduler entry point inherits: one assignment and
  // phase per split stream, one uplink/latency per parent stream.
  PAMO_ENSURES(result.assignment.size() == result.streams.size() &&
                   result.phase.size() == result.streams.size(),
               "per-split-stream vectors must align");
  PAMO_ENSURES(result.uplink_per_parent.size() == num_parents &&
                   result.latency_per_parent.size() == num_parents,
               "per-parent vectors must align");
}

/// One co-scheduled set being packed under the Theorem 3 conditions, kept
/// as aggregates; callers record which group each stream joined.
struct Group {
  std::uint64_t tmin = 0;  // 0 while the group is empty
  std::uint64_t gcd = 0;   // gcd of the member periods
  double proc = 0.0;  // Σ of (possibly headroom-inflated) processing times
  double bits = 0.0;  // Σ θ_bit(r_i), accumulated in join order
};

/// Membership test of Algorithm 1 lines 4–19: all periods must be integer
/// multiples of the new group minimum, and Σp must fit in it (Theorem 3
/// (a)+(b), generalized to allow a new stream with a smaller period). The
/// first member must fit its own period too. `proc` is the stream's
/// (possibly inflated) processing time. Joins the group and returns true
/// on success.
bool try_join(Group& group, const PeriodicStream& stream, double proc,
              const TickClock& clock) {
  const std::uint64_t period = stream.period_ticks;
  if (group.tmin == 0) {
    if (proc > clock.to_seconds(period) + kJoinTol) return false;
    group = {period, period, proc, stream.bits_per_frame};
    return true;
  }
  // Every member period is a multiple of the new minimum iff their gcd is.
  const std::uint64_t new_tmin = std::min(group.tmin, period);
  if (period % new_tmin != 0 || group.gcd % new_tmin != 0) return false;
  const double new_proc = group.proc + proc;
  if (new_proc > clock.to_seconds(new_tmin) + kJoinTol) return false;
  group.tmin = new_tmin;
  group.gcd = std::gcd(group.gcd, period);
  group.proc = new_proc;
  group.bits += stream.bits_per_frame;
  return true;
}

/// Lines 5–15: the first group `stream` joins, or groups.size() when none
/// admits it (line 16: no feasible grouping scheme).
std::size_t join_first_fit(std::vector<Group>& groups,
                           const PeriodicStream& stream, double proc,
                           const TickClock& clock) {
  std::size_t g = 0;
  while (g < groups.size() && !try_join(groups[g], stream, proc, clock)) ++g;
  return g;
}

/// Stable insertion sort: the same order as std::stable_sort, without its
/// heap buffer (Algorithm 1 orders tens of streams per call).
template <typename Key>
void insertion_sort(std::vector<std::size_t>& items, Key key) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    const std::size_t item = items[i];
    std::size_t j = i;
    for (; j > 0 && key(item) < key(items[j - 1]); --j) {
      items[j] = items[j - 1];
    }
    items[j] = item;
  }
}

/// Lines 1–3 of Algorithm 1 over a subset of stream indices: sort by
/// period ascending, compute divisor-count priorities, re-sort by priority
/// ascending (stable, so period order breaks ties).
std::vector<std::size_t> alg1_order(const std::vector<PeriodicStream>& streams,
                                    std::vector<std::size_t> subset) {
  const auto period = [&](std::size_t s) { return streams[s].period_ticks; };
  insertion_sort(subset, period);
  // priority[s] = #{earlier streams in period order whose period divides
  // T_s}. A stream with its predecessor's period counts exactly one more
  // (the predecessor itself), and within a run of equal periods one
  // modulo decides for the whole run.
  std::vector<std::size_t> priority(streams.size(), 0);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const std::uint64_t ti = period(subset[i]);
    if (i > 0 && ti == period(subset[i - 1])) {
      priority[subset[i]] = priority[subset[i - 1]] + 1;
      continue;
    }
    std::size_t count = 0;
    bool divides = false;
    for (std::size_t j = 0; j < i; ++j) {
      const std::uint64_t tj = period(subset[j]);
      if (j == 0 || tj != period(subset[j - 1])) divides = ti % tj == 0;
      count += divides ? 1 : 0;
    }
    priority[subset[i]] = count;
  }
  insertion_sort(subset, [&](std::size_t s) { return priority[s]; });
  return subset;
}

/// Necessary condition for any Theorem 3 grouping onto `num_servers`
/// groups, checked before splitting. A group's utilization Σ p_i/T_i is at
/// most Σ p_i/T_min <= 1 + kJoinTol/T_min, and splitting a parent into k
/// sub-streams of period k·T keeps its utilization at p·f, so a packing
/// exists only if h·Σ p·f over the parents stays within num_servers times
/// that (plus a relative margin far above the rounding of either sum).
bool exceeds_load_bound(const eva::Workload& workload,
                        const eva::JointConfig& config,
                        std::size_t num_servers, double proc_headroom) {
  double load = 0.0;
  std::uint32_t max_fps = 0;
  for (std::size_t i = 0; i < config.size(); ++i) {
    load += workload.clips[i].proc_time(config[i].resolution) * config[i].fps;
    max_fps = std::max(max_fps, config[i].fps);
  }
  const double slack = 1e-9 + kJoinTol * max_fps;
  return proc_headroom * load >
         static_cast<double>(num_servers) * (1.0 + slack);
}

/// Algorithm 1 over the given (ascending) list of usable server indices.
/// Sets `*screened` when the load bound rejected the configuration before
/// any splitting or packing.
ScheduleResult zero_jitter_impl(const eva::Workload& workload,
                                const eva::JointConfig& config,
                                const std::vector<std::size_t>& servers,
                                double proc_headroom,
                                bool* screened = nullptr) {
  PAMO_EXPECTS(config.size() == workload.num_streams(),
               "one knob configuration per parent stream");
  ScheduleResult result;
  if (exceeds_load_bound(workload, config, servers.size(), proc_headroom)) {
    if (screened != nullptr) *screened = true;
    return result;
  }
  result.streams = split_streams(workload, config);
  const auto& clock = workload.space.clock();
  const std::size_t m = result.streams.size();

  std::vector<std::size_t> all(m);
  std::iota(all.begin(), all.end(), 0);
  const std::vector<std::size_t> ordered =
      alg1_order(result.streams, std::move(all));

  // Lines 4–19: greedy group packing under the Theorem 3 conditions, one
  // potential group per usable server. An empty group admits whatever
  // fits its own period, so the used groups always form a prefix.
  std::vector<Group> groups(servers.size());
  std::vector<std::size_t> group_of(m);
  for (std::size_t idx : ordered) {
    const PeriodicStream& stream = result.streams[idx];
    const std::size_t g = join_first_fit(
        groups, stream, stream.proc_time * proc_headroom, clock);
    if (g == groups.size()) {
      result.feasible = false;  // line 16: no feasible grouping scheme
      return result;
    }
    group_of[idx] = g;
  }

  // Line 20: assign non-empty groups to the usable servers, minimizing
  // total communication latency Σ θ_bit(r_i)/B_{q_i}.
  std::size_t active = 0;
  while (active < groups.size() && groups[active].tmin != 0) ++active;
  la::Matrix cost(active, servers.size());
  for (std::size_t g = 0; g < active; ++g) {
    for (std::size_t j = 0; j < servers.size(); ++j) {
      cost(g, j) = groups[g].bits / (workload.uplink_mbps[servers[j]] * 1e6);
    }
  }
  const AssignmentResult assignment = solve_assignment(cost);
  for (std::size_t& g : group_of) g = servers[assignment.col_of[g]];
  result.assignment = std::move(group_of);
  result.feasible = true;
  finalize(workload, result, /*stagger=*/true, proc_headroom);

  PAMO_ASSERT(const2_holds(result.streams, result.assignment,
                           workload.num_servers(), clock),
              "Algorithm 1 produced a Const2-violating schedule");
  return result;
}

/// Usable-server index list from a mask (with validation).
std::vector<std::size_t> usable_list(const eva::Workload& workload,
                                     const std::vector<bool>& server_usable) {
  PAMO_CHECK(server_usable.size() == workload.num_servers(),
             "usable-server mask size mismatch");
  std::vector<std::size_t> servers;
  for (std::size_t s = 0; s < server_usable.size(); ++s) {
    if (server_usable[s]) servers.push_back(s);
  }
  PAMO_CHECK(!servers.empty(), "no usable servers left");
  return servers;
}

}  // namespace

ScheduleResult schedule_zero_jitter(const eva::Workload& workload,
                                    const eva::JointConfig& config) {
  PAMO_SPAN("sched.zero_jitter");
  std::vector<std::size_t> servers(workload.num_servers());
  std::iota(servers.begin(), servers.end(), 0);
  bool screened = false;
  ScheduleResult result = zero_jitter_impl(
      workload, config, servers, /*proc_headroom=*/1.0, &screened);
  PAMO_ENSURES(!screened || (!result.feasible && result.streams.empty()),
               "a screened result is infeasible with no per-stream vectors");
  PAMO_COUNT("sched.zero_jitter_calls", 1);
  PAMO_COUNT("sched.zero_jitter_screened", screened ? 1 : 0);
  PAMO_COUNT("sched.zero_jitter_infeasible", result.feasible ? 0 : 1);
  return result;
}

ScheduleResult schedule_zero_jitter_masked(
    const eva::Workload& workload, const eva::JointConfig& config,
    const std::vector<bool>& server_usable, double proc_headroom) {
  PAMO_CHECK(proc_headroom >= 1.0, "processing headroom must be >= 1");
  return zero_jitter_impl(workload, config,
                          usable_list(workload, server_usable),
                          proc_headroom);
}

ScheduleResult reschedule_pinned(const eva::Workload& workload,
                                 const eva::JointConfig& config,
                                 const ScheduleResult& previous,
                                 const std::vector<bool>& server_usable,
                                 double proc_headroom) {
  PAMO_CHECK(proc_headroom >= 1.0, "processing headroom must be >= 1");
  PAMO_CHECK(server_usable.size() == workload.num_servers(),
             "usable-server mask size mismatch");
  if (std::none_of(server_usable.begin(), server_usable.end(),
                   [](bool u) { return u; })) {
    // Repair entry point: zero survivors is an environment state, not a
    // caller bug — report infeasible so the resilience loop can escalate.
    ScheduleResult result;
    result.feasible = false;
    return result;
  }
  const std::vector<std::size_t> servers =
      usable_list(workload, server_usable);
  const std::size_t num_servers = workload.num_servers();

  ScheduleResult result;
  result.streams = split_streams(workload, config);
  PAMO_CHECK(previous.streams.size() == result.streams.size() &&
                 previous.assignment.size() == previous.streams.size(),
             "previous schedule does not match this configuration");
  const auto& clock = workload.space.clock();
  const std::size_t m = result.streams.size();

  std::vector<std::size_t> group_of(num_servers, num_servers);
  for (std::size_t g = 0; g < servers.size(); ++g) {
    group_of[servers[g]] = g;
  }

  // Partition: streams on usable servers stay pinned; the rest are
  // orphans. Pinned members re-join their group in ascending-period order
  // (any Theorem 3 group is prefix-valid in that order), which also
  // re-validates the group under the inflated processing times.
  std::vector<Group> groups(servers.size());
  std::vector<std::size_t> pinned;
  std::vector<std::size_t> orphans;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t prev = previous.assignment[i];
    PAMO_CHECK(prev < num_servers, "previous assignment out of range");
    if (server_usable[prev]) {
      pinned.push_back(i);
    } else {
      orphans.push_back(i);
    }
  }
  insertion_sort(pinned,
                 [&](std::size_t s) { return result.streams[s].period_ticks; });
  std::vector<std::size_t> assignment(m);
  for (std::size_t idx : pinned) {
    const PeriodicStream& stream = result.streams[idx];
    const std::size_t server = previous.assignment[idx];
    if (!try_join(groups[group_of[server]], stream,
                  stream.proc_time * proc_headroom, clock)) {
      // The surviving placement no longer fits (e.g. straggler headroom
      // ate the slack): signal the caller to fall back to a full re-pack.
      result.feasible = false;
      return result;
    }
    assignment[idx] = server;
  }

  for (std::size_t idx : alg1_order(result.streams, std::move(orphans))) {
    const PeriodicStream& stream = result.streams[idx];
    const std::size_t g = join_first_fit(
        groups, stream, stream.proc_time * proc_headroom, clock);
    if (g == groups.size()) {
      result.feasible = false;
      return result;
    }
    assignment[idx] = servers[g];
  }

  result.assignment = std::move(assignment);
  result.feasible = true;
  finalize(workload, result, /*stagger=*/true, proc_headroom);

  PAMO_ASSERT(const2_holds(result.streams, result.assignment, num_servers,
                           clock),
              "pinned repair produced a Const2-violating schedule");
  return result;
}

ScheduleResult schedule_first_fit(const eva::Workload& workload,
                                  const eva::JointConfig& config) {
  PAMO_CHECK(config.size() == workload.num_streams(),
             "joint config size mismatch");
  ScheduleResult result;
  result.streams = split_streams(workload, config);
  const auto& clock = workload.space.clock();
  const std::size_t num_servers = workload.num_servers();

  std::vector<double> utilization(num_servers, 0.0);
  result.assignment.assign(result.streams.size(), 0);
  for (std::size_t i = 0; i < result.streams.size(); ++i) {
    const auto& s = result.streams[i];
    const double load = s.proc_time / clock.to_seconds(s.period_ticks);
    bool placed = false;
    for (std::size_t server = 0; server < num_servers; ++server) {
      if (utilization[server] + load <= 1.0 + 1e-12) {
        utilization[server] += load;
        result.assignment[i] = server;
        placed = true;
        break;
      }
    }
    if (!placed) {
      result.feasible = false;
      return result;
    }
  }
  result.feasible = true;
  finalize(workload, result, /*stagger=*/false);
  return result;
}

ScheduleResult assemble_zero_jitter(const eva::Workload& workload,
                                    std::vector<PeriodicStream> streams,
                                    std::vector<std::size_t> assignment,
                                    double proc_headroom) {
  PAMO_CHECK(proc_headroom >= 1.0, "processing headroom must be >= 1");
  PAMO_CHECK(assignment.size() == streams.size(),
             "one server per split stream");
  for (std::size_t server : assignment) {
    PAMO_CHECK(server < workload.num_servers(), "server index out of range");
  }
  ScheduleResult result;
  result.streams = std::move(streams);
  result.assignment = std::move(assignment);
  result.feasible = true;
  finalize(workload, result, /*stagger=*/true, proc_headroom);
  PAMO_ASSERT(const2_holds(result.streams, result.assignment,
                           workload.num_servers(), workload.space.clock()),
              "assembled assignment violates Const2");
  return result;
}

ScheduleResult schedule_fixed_assignment(
    const eva::Workload& workload, const eva::JointConfig& config,
    const std::vector<std::size_t>& server_per_parent) {
  PAMO_CHECK(server_per_parent.size() == workload.num_streams(),
             "per-parent assignment size mismatch");
  for (std::size_t server : server_per_parent) {
    PAMO_CHECK(server < workload.num_servers(), "server index out of range");
  }
  ScheduleResult result;
  result.streams = split_streams(workload, config);
  result.assignment.reserve(result.streams.size());
  for (const auto& s : result.streams) {
    result.assignment.push_back(server_per_parent[s.parent]);
  }
  result.feasible = true;
  finalize(workload, result, /*stagger=*/false);
  return result;
}

}  // namespace pamo::sched
