// Const1/Const2 (Eqs. 6–7) and the Theorem 1–3 predicates as checkable
// code. These are used by Algorithm 1, by the property tests that verify
// the paper's proofs against the discrete-event simulator, and by the
// jitter ablation bench.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ticks.hpp"
#include "sched/stream.hpp"

namespace pamo::sched {

/// Tolerance (seconds) of every Σp-fits-in-a-period test: the Theorem 1/3
/// predicates here, Algorithm 1's group joins, and the exact and
/// branch-and-bound searches, so all of them accept the same groups.
inline constexpr double kJoinTol = 1e-12;

/// Const1 (Eq. 6): Σ_{i: q_i = j} p_i · s_i <= 1 for every server j.
/// `assignment[i]` is the server index of streams[i]; `num_servers` = N.
bool const1_holds(const std::vector<PeriodicStream>& streams,
                  const std::vector<std::size_t>& assignment,
                  std::size_t num_servers, const TickClock& clock);

/// Const2 (Eq. 7): Σ_{i: q_i = j} p_i <= gcd({T_i : q_i = j}) per server.
bool const2_holds(const std::vector<PeriodicStream>& streams,
                  const std::vector<std::size_t>& assignment,
                  std::size_t num_servers, const TickClock& clock);

/// Theorem 1 condition for one co-scheduled set: Σ p_i <= gcd(T_1..T_K).
bool theorem1_condition(const std::vector<PeriodicStream>& group,
                        const TickClock& clock);

/// Theorem 3 conditions for one co-scheduled set:
/// (a) every T_i is an integer multiple of T_min, and (b) Σ p_i <= T_min.
bool theorem3_condition(const std::vector<PeriodicStream>& group,
                        const TickClock& clock);

/// gcd of the group's periods, in ticks.
std::uint64_t group_period_gcd(const std::vector<PeriodicStream>& group);

}  // namespace pamo::sched
