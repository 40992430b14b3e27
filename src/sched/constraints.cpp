#include "sched/constraints.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace pamo::sched {

namespace {

std::vector<std::vector<PeriodicStream>> group_by_server(
    const std::vector<PeriodicStream>& streams,
    const std::vector<std::size_t>& assignment, std::size_t num_servers) {
  PAMO_CHECK(streams.size() == assignment.size(),
             "assignment size does not match stream count");
  std::vector<std::vector<PeriodicStream>> groups(num_servers);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    PAMO_CHECK(assignment[i] < num_servers, "server index out of range");
    groups[assignment[i]].push_back(streams[i]);
  }
  return groups;
}

}  // namespace

std::uint64_t group_period_gcd(const std::vector<PeriodicStream>& group) {
  PAMO_CHECK(!group.empty(), "gcd of an empty group");
  std::vector<std::uint64_t> periods;
  periods.reserve(group.size());
  for (const auto& s : group) periods.push_back(s.period_ticks);
  return gcd_of(periods);
}

bool const1_holds(const std::vector<PeriodicStream>& streams,
                  const std::vector<std::size_t>& assignment,
                  std::size_t num_servers, const TickClock& clock) {
  for (const auto& group : group_by_server(streams, assignment, num_servers)) {
    double utilization = 0.0;
    for (const auto& s : group) {
      utilization += s.proc_time / clock.to_seconds(s.period_ticks);
    }
    if (utilization > 1.0 + 1e-12) return false;
  }
  return true;
}

bool const2_holds(const std::vector<PeriodicStream>& streams,
                  const std::vector<std::size_t>& assignment,
                  std::size_t num_servers, const TickClock& clock) {
  PAMO_CHECK(streams.size() == assignment.size(),
             "assignment size does not match stream count");
  // Theorem 1 per server, folded in stream order: the gcd of the member
  // periods (0 for an empty server) and Σp, summed in the order a
  // per-server group would sum it. The per-thread buffers keep Algorithm
  // 1's assertion free of allocation.
  thread_local std::vector<std::uint64_t> period_gcd;
  thread_local std::vector<double> total_proc;
  period_gcd.assign(num_servers, 0);
  total_proc.assign(num_servers, 0.0);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const std::size_t server = assignment[i];
    PAMO_CHECK(server < num_servers, "server index out of range");
    PAMO_CHECK(streams[i].period_ticks > 0, "stream periods must be positive");
    period_gcd[server] = std::gcd(period_gcd[server], streams[i].period_ticks);
    total_proc[server] += streams[i].proc_time;
  }
  for (std::size_t server = 0; server < num_servers; ++server) {
    if (period_gcd[server] == 0) continue;
    if (!(total_proc[server] <=
          clock.to_seconds(period_gcd[server]) + kJoinTol)) {
      return false;
    }
  }
  return true;
}

bool theorem1_condition(const std::vector<PeriodicStream>& group,
                        const TickClock& clock) {
  if (group.empty()) return true;
  double total_proc = 0.0;
  for (const auto& s : group) total_proc += s.proc_time;
  return total_proc <= clock.to_seconds(group_period_gcd(group)) + kJoinTol;
}

bool theorem3_condition(const std::vector<PeriodicStream>& group,
                        const TickClock& clock) {
  if (group.empty()) return true;
  std::uint64_t t_min = group.front().period_ticks;
  for (const auto& s : group) t_min = std::min(t_min, s.period_ticks);
  double total_proc = 0.0;
  for (const auto& s : group) {
    if (s.period_ticks % t_min != 0) return false;  // condition (a)
    total_proc += s.proc_time;
  }
  return total_proc <= clock.to_seconds(t_min) + kJoinTol;  // condition (b)
}

}  // namespace pamo::sched
