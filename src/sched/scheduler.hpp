// Scheduling decisions: Algorithm 1 (group-based zero-jitter heuristic)
// and a naive First-Fit scheduler used by baselines and ablations.
//
// Given a joint configuration, the zero-jitter scheduler:
//   1. splits high-rate streams (§3),
//   2. orders streams by period, then by divisor-count priority (lines 1–3),
//   3. packs streams into at most N groups so every group satisfies the
//      Theorem 3 conditions — hence Const2, hence Const1 and zero delay
//      jitter (lines 4–19),
//   4. maps groups to servers with the Hungarian algorithm, minimizing the
//      total communication latency Σ θ_bit(r_i)/B_{q_i} (line 20),
//   5. staggers per-stream start offsets inside each group as in the proof
//      of Theorem 1, so frames never queue behind each other.
#pragma once

#include <cstdint>
#include <vector>

#include "eva/workload.hpp"
#include "sched/stream.hpp"

namespace pamo::sched {

struct ScheduleResult {
  bool feasible = false;
  std::vector<PeriodicStream> streams;   // split streams (scheduler's view)
  std::vector<std::size_t> assignment;   // server index per split stream
  std::vector<double> phase;             // start offset (s) per split stream
  /// Mean uplink (Mbps) over each *parent* stream's sub-streams.
  std::vector<double> uplink_per_parent;
  /// Jitter-free e2e latency per parent stream: p_i + θ_bit(r_i)/B (Eq. 5).
  std::vector<double> latency_per_parent;
  /// Total communication latency Σ θ_bit(r_i)/B_{q_i} (Algorithm 1's
  /// assignment objective).
  double comm_cost = 0.0;
};

/// Algorithm 1 + Hungarian assignment. `result.feasible` is false when no
/// grouping satisfying Const2 exists for this configuration. A load screen
/// runs first: when h·Σ p_i·s_i over the parent streams exceeds the server
/// count, no Theorem 3 grouping can exist, and the result is infeasible
/// without splitting or packing. Such a screened result carries no
/// per-stream vectors (not even `streams`); callers read only `.feasible`
/// from an infeasible result. Traces count the screened calls as
/// `sched.zero_jitter_screened`, next to `sched.zero_jitter_calls` and
/// `sched.zero_jitter_infeasible`.
ScheduleResult schedule_zero_jitter(const eva::Workload& workload,
                                    const eva::JointConfig& config);

/// schedule_zero_jitter's load screen on its own: true exactly when that
/// call would return the screened result (infeasible, empty `streams`)
/// without splitting or packing. Callers that discard infeasible
/// configurations run it first to skip the rest of Algorithm 1.
bool exceeds_load_bound(const eva::Workload& workload,
                        const eva::JointConfig& config);

/// The right-hand side of the load screen: the most h·Σ p_i·s_i that
/// `num_servers` Theorem 3 groups can carry when the fastest stream runs
/// at `max_fps`, num_servers·(1 + 1e-9 + kJoinTol·max_fps).
double load_capacity(std::size_t num_servers, std::uint32_t max_fps);

/// Algorithm 1 restricted to the servers marked usable (crashed servers
/// are excluded from grouping and assignment). `proc_headroom` >= 1
/// inflates processing times during group packing and phase staggering —
/// slack for servers known to be running slow (stragglers) so the packed
/// groups stay contention-free at the degraded speed. The load screen
/// applies with the inflated times against the usable-server count.
ScheduleResult schedule_zero_jitter_masked(
    const eva::Workload& workload, const eva::JointConfig& config,
    const std::vector<bool>& server_usable, double proc_headroom = 1.0);

/// Fast-repair entry point: re-place only the streams orphaned by
/// unusable servers. Streams whose previous server is still usable stay
/// *pinned* to it (their groups are re-validated under `proc_headroom`);
/// orphans are packed into the surviving groups under the Theorem 3
/// conditions. No Hungarian re-assignment — pinned groups must not move —
/// so repair cost is O(M·N) instead of a full re-optimization.
/// `previous` must be a schedule of the same (workload, config) split.
/// Returns feasible = false when the orphans cannot be absorbed (callers
/// then fall back to schedule_zero_jitter_masked or degrade knobs) — and
/// also when *no* server survives, since at this repair entry point an
/// empty fleet is an environment state rather than a caller bug.
ScheduleResult reschedule_pinned(const eva::Workload& workload,
                                 const eva::JointConfig& config,
                                 const ScheduleResult& previous,
                                 const std::vector<bool>& server_usable,
                                 double proc_headroom = 1.0);

/// First-Fit on Const1 only (utilization <= 1), ignoring Const2 — the
/// placement rule of JCAB and the ablation contrast for Figure 4.
ScheduleResult schedule_first_fit(const eva::Workload& workload,
                                  const eva::JointConfig& config);

/// Build a complete zero-jitter ScheduleResult from an explicit split-
/// stream list and per-split-stream server assignment: Theorem-1 phase
/// staggering (transfer-compensated, optionally headroom-inflated), the
/// per-parent uplink/latency bookkeeping, and the communication cost —
/// exactly the construction Algorithm 1 applies after its own grouping.
/// The assignment must already satisfy Const2 per server (asserted); the
/// branch-and-bound search uses this to turn a raw assignment into a
/// result consistent with the rest of the library.
ScheduleResult assemble_zero_jitter(const eva::Workload& workload,
                                    std::vector<PeriodicStream> streams,
                                    std::vector<std::size_t> assignment,
                                    double proc_headroom = 1.0);

/// Build a schedule from an explicit per-parent server assignment (every
/// sub-stream inherits its parent's server; phases are not staggered).
/// Used by baselines that make their own placement decisions. The result
/// is marked feasible unconditionally — capacity violations show up as
/// queueing delay in the simulator, as they would on real hardware.
ScheduleResult schedule_fixed_assignment(
    const eva::Workload& workload, const eva::JointConfig& config,
    const std::vector<std::size_t>& server_per_parent);

}  // namespace pamo::sched
