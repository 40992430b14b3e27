#include "sched/constraints.hpp"

#include <algorithm>

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
  for (const auto& group : group_by_server(streams, assignment, num_servers)) {
    if (group.empty()) continue;
    if (!theorem1_condition(group, clock)) return false;
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
