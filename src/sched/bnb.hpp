// Anytime branch-and-bound placement engine with admissible bounds.
//
// Placement under Const1/Const2 is an assignment problem: each split
// stream must be assigned a server so that every server's co-scheduled
// set satisfies the Theorem-1 gcd condition, minimizing the same
// communication objective as Algorithm 1's line 20 (Σ θ_bit(r_i)/B_{q_i}).
// The paper concedes this is strongly NP-hard and ships a greedy
// heuristic; this module is the exact/anytime counterpart used to audit
// the greedy pass (bench/ext_placement_gap) and, optionally, as a fast
// exact repair path for small orphan sets after faults.
//
// Search design (best-first / A*):
//   * Groups under construction are *anonymous* — which server hosts a
//     group is decided by a rectangular Hungarian assignment, exactly at
//     leaves and as a relaxation bound at interior nodes — except for
//     *bound* groups pinned to a specific server by the repair entry
//     point, whose cost is committed incrementally as members join.
//   * The lower bound of a partial node is admissible by construction:
//     committed cost (exact) + the assignment relaxation of the current
//     anonymous groups over the free servers (any completion only grows
//     those groups and must still map them injectively) + every
//     still-unplaced stream billed at the fastest usable uplink.
//   * Expansion is best-first over that bound (ties: deeper first, then
//     insertion order), so the first leaf popped — or the first interior
//     node popped whose bound cannot beat the incumbent — proves
//     optimality. Feasibility and cost are evaluated incrementally per
//     node (gcd/proc-sum per group, one term per placement).
//   * The search is *anytime*: the incumbent is seeded from Algorithm 1
//     when it is feasible and improved whenever a cheaper leaf is
//     generated, so exhausting the deterministic node budget degrades to
//     best-found-so-far with an explicit status instead of an answer
//     that conflates "unknown" with "infeasible".
//
// This is the repo's only exact placement engine: the knobs are an input,
// and the search is over placement alone.
#pragma once

#include <cstdint>
#include <vector>

#include "eva/workload.hpp"
#include "sched/scheduler.hpp"

namespace pamo::sched {

/// Outcome of a budgeted branch-and-bound search. The four
/// states keep "we ran out of budget" distinguishable from "there is no
/// solution" — conflating them is precisely the bug class this engine
/// audits against.
enum class BnbStatus {
  kOptimal,         // proven optimal solution returned
  kFeasibleBudget,  // feasible best-found returned; optimality unproven
  kInfeasible,      // proven: no feasible assignment exists
  kUnknown,         // node budget exhausted before any feasible solution
};

/// Human-readable status label (for benches, logs, and repair actions).
const char* bnb_status_name(BnbStatus status);

struct BnbOptions {
  /// Deterministic search budget: the maximum number of placement-node
  /// expansions (priority-queue pops; each places one sub-stream). Acts as
  /// the "deadline" — deterministic by construction, unlike wall-clock, so
  /// same inputs give same outputs.
  std::size_t max_nodes = 200'000;
};

struct BnbResult {
  BnbStatus status = BnbStatus::kUnknown;
  /// Complete zero-jitter schedule; feasible exactly when status is
  /// kOptimal or kFeasibleBudget (default-constructed otherwise).
  ScheduleResult schedule;
  /// Objective of `schedule`: its communication cost (+infinity when no
  /// schedule was found).
  double objective = 0.0;
  /// Admissible lower bound on the optimal objective: equal to
  /// `objective` when kOptimal, the best unexplored node's bound when the
  /// budget ran out (objective - lower_bound is then a certified
  /// optimality gap), +infinity when kInfeasible.
  double lower_bound = 0.0;
  /// Node expansions spent (<= options.max_nodes).
  std::size_t nodes_expanded = 0;
};

/// Branch-and-bound placement for the whole workload at the given
/// configuration — the exact/anytime counterpart of schedule_zero_jitter,
/// searching the full Const2 space (Theorem-1 gcd condition), which is
/// strictly broader than Algorithm 1's Theorem-3 grouping.
BnbResult schedule_bnb(const eva::Workload& workload,
                       const eva::JointConfig& config,
                       const BnbOptions& options = {});

/// Branch-and-bound repair: streams whose previous server is still usable
/// stay pinned to it (their groups re-validated under `proc_headroom`,
/// like reschedule_pinned); orphans are re-placed *optimally* over the
/// usable servers. kInfeasible here proves that no pinned repair exists —
/// callers should then fall back to a full re-pack; kUnknown (budget) is
/// NOT evidence of infeasibility and callers should fall back to the
/// greedy reschedule_pinned instead.
BnbResult reschedule_bnb_pinned(const eva::Workload& workload,
                                const eva::JointConfig& config,
                                const ScheduleResult& previous,
                                const std::vector<bool>& server_usable,
                                double proc_headroom = 1.0,
                                const BnbOptions& options = {});

}  // namespace pamo::sched
