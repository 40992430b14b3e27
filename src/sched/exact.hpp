// Exact zero-jitter grouping by exhaustive depth-first search.
//
// The paper notes that non-preemptive periodic scheduling is strongly
// NP-hard and is solved exactly in the literature with ILP/CP/SMT
// formulations (§6); Algorithm 1 is its fast heuristic. This module
// provides the exact reference for small instances: search over all
// assignments of streams to at most N groups subject to Const2
// (Theorem 1's gcd condition per group), minimizing the same communication
// objective as Algorithm 1's line 20. Used by tests and the ablation bench
// to quantify the heuristic's feasibility and cost gap; sched/bnb.hpp is
// the best-first engine that scales further and must agree with this one
// on proven-optimal instances.
//
// The search runs under a node budget, and the result type keeps budget
// exhaustion distinguishable from proven infeasibility (BnbStatus — shared
// with the branch-and-bound engine). Earlier revisions returned nullopt
// for both, which let "we gave up" masquerade as "no schedule exists" in
// feasibility ablations; that conflation is now unrepresentable.
#pragma once

#include <cstdint>
#include <optional>

#include "sched/bnb.hpp"
#include "sched/scheduler.hpp"

namespace pamo::sched {

struct ExactOptions {
  /// Safety valve: give up after this many search nodes. Exhausting the
  /// budget yields kFeasibleBudget (best found so far, optimality
  /// unproven) or kUnknown (nothing found, infeasibility unproven) —
  /// never kInfeasible.
  std::size_t max_nodes = 2'000'000;
};

/// Result of the exact optimization search. `schedule` is engaged exactly
/// when status is kOptimal or kFeasibleBudget, and is then a feasible
/// zero-jitter schedule (proven minimum-cost only under kOptimal).
struct ExactResult {
  BnbStatus status = BnbStatus::kUnknown;
  std::optional<ScheduleResult> schedule;
};

/// Exact minimum-communication-cost zero-jitter schedule under a node
/// budget. See ExactResult for the status/schedule contract.
ExactResult schedule_exact(const eva::Workload& workload,
                           const eva::JointConfig& config,
                           const ExactOptions& options = {});

}  // namespace pamo::sched
