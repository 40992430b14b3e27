#include "sched/bnb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/ticks.hpp"
#include "la/matrix.hpp"
#include "obs/obs.hpp"
#include "sched/constraints.hpp"
#include "sched/hungarian.hpp"
#include "sched/stream.hpp"

namespace pamo::sched {

namespace {

constexpr double kEps = 1e-15;      // incumbent-vs-bound pruning tolerance
constexpr double kInf = std::numeric_limits<double>::infinity();

struct GroupState {
  std::uint64_t gcd_ticks = 0;
  double proc_sum = 0.0;  // raw Σ p_i; the headroom factor applies in joins
  double bits_sum = 0.0;
};

/// The placement work for one parent: place each of its sub-streams.
/// tail_bits[k] = Σ_{j >= k} subs[j].bits feeds the unplaced-tail lower
/// bound; lb_cost is the cheapest conceivable contribution (every bit at
/// the fastest usable uplink).
struct ParentTask {
  std::size_t parent = 0;
  double max_proc = 0.0;  // ordering key: largest p_i among subs
  double lb_cost = 0.0;
  std::vector<PeriodicStream> subs;
  std::vector<double> tail_bits;
};

/// Mutable search position, reconstructed from a decision path. Placement
/// codes for the current sub-stream: [0, B) = bound slot (server-pinned
/// group), [B, B+A) = existing anonymous group, B+A = open a new anonymous
/// group (only while fewer anonymous groups than free servers exist).
struct State {
  std::vector<GroupState> bound_groups;
  std::vector<GroupState> anon_groups;
  double committed = 0.0;  // exact: bound-group comm cost
  std::size_t task = 0;
  std::size_t sub = 0;
  std::vector<std::vector<std::uint16_t>> placements;  // per task, per sub
};

struct Node {
  double bound = 0.0;
  std::uint64_t seq = 0;
  std::vector<std::uint16_t> path;
};

/// Best-first order: smallest bound, then deepest path (closer to a leaf),
/// then earliest creation. Chained strict comparisons — no floating-point
/// equality test is needed for the tie levels.
struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound > b.bound) return true;
    if (b.bound > a.bound) return false;
    if (a.path.size() != b.path.size()) return a.path.size() < b.path.size();
    return a.seq > b.seq;
  }
};

struct SearchContext {
  const eva::Workload* workload = nullptr;
  const TickClock* clock = nullptr;
  double headroom = 1.0;
  double max_uplink = 0.0;  // fastest usable uplink (Mbps)
  std::vector<std::size_t> bound_servers;  // server index per bound slot
  std::vector<std::size_t> free_servers;   // usable servers with no pinning
  std::vector<ParentTask> tasks;
  std::vector<double> suffix_lb;  // suffix_lb[t] = Σ_{t' >= t} lb_cost
  std::vector<PeriodicStream> pinned_streams;
  std::vector<std::size_t> pinned_assignment;
  State root;
};

/// Theorem-1 gcd-condition join (headroom-inflated, same kJoinTol tolerance
/// as const2_holds). Mutates `group` only on success.
bool join_group(const SearchContext& ctx, GroupState& group,
                const PeriodicStream& stream) {
  const std::uint64_t new_gcd =
      group.gcd_ticks == 0 ? stream.period_ticks
                           : std::gcd(group.gcd_ticks, stream.period_ticks);
  const double new_proc = group.proc_sum + stream.proc_time;
  if (new_proc * ctx.headroom > ctx.clock->to_seconds(new_gcd) + kJoinTol) {
    return false;
  }
  group.gcd_ticks = new_gcd;
  group.proc_sum = new_proc;
  group.bits_sum += stream.bits_per_frame;
  return true;
}

/// Apply one decision code to `state`. Returns false (state possibly
/// partially read but unmodified) when the code is out of range or the
/// placement violates the gcd condition.
bool apply_decision(const SearchContext& ctx, State& state,
                    std::uint16_t code) {
  const ParentTask& task = ctx.tasks[state.task];
  const PeriodicStream& stream = task.subs[state.sub];
  const std::size_t num_bound = ctx.bound_servers.size();
  const std::size_t num_anon = state.anon_groups.size();
  if (code < num_bound) {
    if (!join_group(ctx, state.bound_groups[code], stream)) return false;
    state.committed +=
        stream.bits_per_frame /
        (ctx.workload->uplink_mbps[ctx.bound_servers[code]] * 1e6);
  } else if (code < num_bound + num_anon) {
    if (!join_group(ctx, state.anon_groups[code - num_bound], stream)) {
      return false;
    }
  } else if (code == num_bound + num_anon &&
             num_anon < ctx.free_servers.size()) {
    GroupState fresh;
    if (!join_group(ctx, fresh, stream)) return false;
    state.anon_groups.push_back(fresh);
  } else {
    return false;
  }
  state.placements[state.task].push_back(code);
  ++state.sub;
  if (state.sub == task.subs.size()) {
    ++state.task;
    state.sub = 0;
  }
  return true;
}

State replay_path(const SearchContext& ctx,
                  const std::vector<std::uint16_t>& path) {
  State state = ctx.root;
  for (const std::uint16_t code : path) {
    const bool ok = apply_decision(ctx, state, code);
    PAMO_ASSERT(ok, "a recorded branch-and-bound path must replay feasibly");
  }
  return state;
}

la::Matrix anon_cost_matrix(const SearchContext& ctx, const State& state) {
  la::Matrix cost(state.anon_groups.size(), ctx.free_servers.size());
  for (std::size_t a = 0; a < state.anon_groups.size(); ++a) {
    for (std::size_t f = 0; f < ctx.free_servers.size(); ++f) {
      cost(a, f) = state.anon_groups[a].bits_sum /
                   (ctx.workload->uplink_mbps[ctx.free_servers[f]] * 1e6);
    }
  }
  return cost;
}

/// Committed cost plus the optimal injective mapping of the anonymous
/// groups' *current* bits onto the free servers. Exact at a leaf; at an
/// interior node a lower bound, since any completion only grows the groups.
double placed_cost(const SearchContext& ctx, const State& state) {
  if (state.anon_groups.empty()) return state.committed;
  return state.committed +
         solve_assignment(anon_cost_matrix(ctx, state)).total_cost;
}

/// Admissible lower bound for a partial state: placed_cost, the current
/// task's unplaced tail at the fastest uplink, and the suffix bound of the
/// untouched tasks. A task not yet started is billed through suffix_lb.
double node_bound(const SearchContext& ctx, const State& state) {
  if (state.sub == 0) {
    return placed_cost(ctx, state) + ctx.suffix_lb[state.task];
  }
  return placed_cost(ctx, state) +
         ctx.tasks[state.task].tail_bits[state.sub] / (ctx.max_uplink * 1e6) +
         ctx.suffix_lb[state.task + 1];
}

/// Rebuild the complete schedule from a terminal decision path: pinned
/// streams keep their servers, placed streams get their group's server
/// (bound slot directly, anonymous groups through the Hungarian mapping).
BnbResult build_result(const SearchContext& ctx,
                       const std::vector<std::uint16_t>& path,
                       double objective) {
  State state = replay_path(ctx, path);
  PAMO_ASSERT(state.task == ctx.tasks.size(),
              "result paths must describe a complete assignment");
  std::vector<std::size_t> anon_server(state.anon_groups.size(), 0);
  if (!state.anon_groups.empty()) {
    const AssignmentResult mapping =
        solve_assignment(anon_cost_matrix(ctx, state));
    for (std::size_t a = 0; a < anon_server.size(); ++a) {
      anon_server[a] = ctx.free_servers[mapping.col_of[a]];
    }
  }
  BnbResult result;
  std::vector<PeriodicStream> streams = ctx.pinned_streams;
  std::vector<std::size_t> assignment = ctx.pinned_assignment;
  for (std::size_t t = 0; t < ctx.tasks.size(); ++t) {
    const ParentTask& task = ctx.tasks[t];
    PAMO_ASSERT(state.placements[t].size() == task.subs.size(),
                "every sub-stream of a completed task must be placed");
    for (std::size_t s = 0; s < task.subs.size(); ++s) {
      const std::uint16_t code = state.placements[t][s];
      streams.push_back(task.subs[s]);
      assignment.push_back(code < ctx.bound_servers.size()
                               ? ctx.bound_servers[code]
                               : anon_server[code - ctx.bound_servers.size()]);
    }
  }
  result.schedule = assemble_zero_jitter(*ctx.workload, std::move(streams),
                                         std::move(assignment), ctx.headroom);
  result.objective = objective;
  PAMO_ASSERT(
      std::abs(result.schedule.comm_cost - objective) <=
          1e-9 * (1.0 + std::abs(objective)),
      "the incremental objective must match the assembled schedule's cost");
  return result;
}

BnbResult infeasible_result() {
  BnbResult result;
  result.status = BnbStatus::kInfeasible;
  result.objective = kInf;
  result.lower_bound = kInf;
  return result;
}

BnbResult run_bnb(const eva::Workload& workload, const eva::JointConfig& config,
                  const BnbOptions& options, const ScheduleResult* previous,
                  const std::vector<bool>* usable_in, double headroom) {
  PAMO_CHECK(config.size() == workload.num_streams(),
             "joint config must cover every stream");
  PAMO_CHECK(headroom >= 1.0, "processing headroom must be >= 1");
  PAMO_CHECK(workload.num_servers() + 2 < 65535,
             "server count exceeds the 16-bit decision encoding");

  const std::size_t num_servers = workload.num_servers();
  const std::vector<bool> usable =
      usable_in ? *usable_in : std::vector<bool>(num_servers, true);
  PAMO_CHECK(usable.size() == num_servers, "one usable flag per server");

  SearchContext ctx;
  ctx.workload = &workload;
  ctx.clock = &workload.space.clock();
  ctx.headroom = headroom;

  // ---- Pinned / orphan classification -----------------------------------
  const std::vector<PeriodicStream> split = split_streams(workload, config);
  std::vector<std::vector<PeriodicStream>> orphan_subs(workload.num_streams());
  std::vector<bool> parent_pinned(workload.num_streams(), false);
  if (previous != nullptr) {
    PAMO_CHECK(previous->streams.size() == previous->assignment.size(),
               "previous schedule must be internally consistent");
    PAMO_CHECK(previous->streams.size() == split.size(),
               "previous schedule must match the (workload, config) split");
    for (std::size_t i = 0; i < previous->streams.size(); ++i) {
      const std::size_t server = previous->assignment[i];
      PAMO_CHECK(server < num_servers,
                 "previous assignment references an unknown server");
      if (usable[server]) {
        ctx.pinned_streams.push_back(previous->streams[i]);
        ctx.pinned_assignment.push_back(server);
        parent_pinned[previous->streams[i].parent] = true;
      } else {
        orphan_subs[previous->streams[i].parent].push_back(
            previous->streams[i]);
      }
    }
  }

  // ---- Bound groups (server-pinned), free servers, fastest uplink -------
  std::vector<GroupState> group_by_server(num_servers);
  std::vector<bool> has_pinned(num_servers, false);
  for (std::size_t i = 0; i < ctx.pinned_streams.size(); ++i) {
    const std::size_t server = ctx.pinned_assignment[i];
    GroupState& group = group_by_server[server];
    group.gcd_ticks =
        std::gcd(group.gcd_ticks, ctx.pinned_streams[i].period_ticks);
    group.proc_sum += ctx.pinned_streams[i].proc_time;
    group.bits_sum += ctx.pinned_streams[i].bits_per_frame;
    has_pinned[server] = true;
  }
  for (std::size_t server = 0; server < num_servers; ++server) {
    if (has_pinned[server]) {
      const GroupState& group = group_by_server[server];
      if (group.proc_sum * headroom >
          ctx.clock->to_seconds(group.gcd_ticks) + kJoinTol) {
        // The surviving placement itself no longer fits under the headroom:
        // no pinned repair exists (a full re-pack might still).
        return infeasible_result();
      }
      ctx.bound_servers.push_back(server);
      ctx.root.bound_groups.push_back(group);
      ctx.root.committed +=
          group.bits_sum / (workload.uplink_mbps[server] * 1e6);
    } else if (usable[server]) {
      ctx.free_servers.push_back(server);
    }
    if (usable[server]) {
      ctx.max_uplink = std::max(ctx.max_uplink, workload.uplink_mbps[server]);
    }
  }

  // ---- Parent tasks ------------------------------------------------------
  for (std::size_t p = 0; p < workload.num_streams(); ++p) {
    ParentTask task;
    task.parent = p;
    if (previous != nullptr) {
      // Repair: only the orphans need placing (all subs of a parent with
      // no survivor, the lost subs of a partly pinned one).
      task.subs = orphan_subs[p];
    } else {
      for (const PeriodicStream& stream : split) {
        if (stream.parent == p) task.subs.push_back(stream);
      }
    }
    if (!task.subs.empty()) ctx.tasks.push_back(std::move(task));
  }

  // ---- Trivial and degenerate roots -------------------------------------
  if (ctx.tasks.empty()) {
    // Nothing to place (empty workload, or a pinned repair with no
    // orphans): the committed placement is the unique — hence optimal —
    // completion.
    BnbResult result = build_result(ctx, {}, ctx.root.committed);
    result.status = BnbStatus::kOptimal;
    result.lower_bound = result.objective;
    return result;
  }
  if (!(ctx.max_uplink > 0.0)) {
    // Streams to place but no usable server: proven infeasible.
    return infeasible_result();
  }

  // ---- Per-task bounds and deterministic ordering ------------------------
  for (ParentTask& task : ctx.tasks) {
    task.tail_bits.assign(task.subs.size() + 1, 0.0);
    for (std::size_t k = task.subs.size(); k > 0; --k) {
      task.tail_bits[k - 1] =
          task.tail_bits[k] + task.subs[k - 1].bits_per_frame;
    }
    task.lb_cost = task.tail_bits[0] / (ctx.max_uplink * 1e6);
    for (const PeriodicStream& stream : task.subs) {
      task.max_proc = std::max(task.max_proc, stream.proc_time);
    }
  }
  // Hardest parents first (fails fast on tight instances); parent index
  // breaks ties so the expansion order is deterministic.
  std::sort(ctx.tasks.begin(), ctx.tasks.end(),
            [](const ParentTask& a, const ParentTask& b) {
              if (a.max_proc > b.max_proc) return true;
              if (b.max_proc > a.max_proc) return false;
              return a.parent < b.parent;
            });
  ctx.suffix_lb.assign(ctx.tasks.size() + 1, 0.0);
  for (std::size_t t = ctx.tasks.size(); t > 0; --t) {
    ctx.suffix_lb[t - 1] = ctx.suffix_lb[t] + ctx.tasks[t - 1].lb_cost;
  }
  ctx.root.placements.assign(ctx.tasks.size(), {});

  // ---- Incumbent seed (anytime behaviour) --------------------------------
  // Algorithm 1's answer (reschedule_pinned for a repair) keeps the search
  // anytime — a budget breach still returns a feasible schedule — and
  // tightens pruning from the first node on.
  ScheduleResult seed_schedule =
      previous != nullptr
          ? reschedule_pinned(workload, config, *previous, usable, headroom)
          : schedule_zero_jitter(workload, config);
  bool have_incumbent = seed_schedule.feasible;
  double incumbent = have_incumbent ? seed_schedule.comm_cost : kInf;

  // ---- Best-first search -------------------------------------------------
  std::priority_queue<Node, std::vector<Node>, NodeOrder> frontier;
  std::uint64_t seq = 0;
  {
    Node root_node;
    root_node.bound = node_bound(ctx, ctx.root);
    root_node.seq = seq++;
    frontier.push(std::move(root_node));
  }
  std::vector<std::uint16_t> best_path;
  bool best_from_search = false;
  std::size_t expanded = 0;
  bool budget_exhausted = false;

  while (!frontier.empty()) {
    if (expanded >= options.max_nodes) {
      budget_exhausted = true;
      break;
    }
    const Node node = frontier.top();
    frontier.pop();
    ++expanded;
    if (have_incumbent && node.bound >= incumbent - kEps) {
      // Best-first: every remaining node is bounded at least this high, so
      // the incumbent is optimal (within tolerance).
      break;
    }
    const State state = replay_path(ctx, node.path);
    const std::size_t code_limit =
        ctx.bound_servers.size() + state.anon_groups.size() + 1;
    for (std::size_t code = 0; code < code_limit; ++code) {
      State child = state;
      if (!apply_decision(ctx, child, static_cast<std::uint16_t>(code))) {
        continue;
      }
      std::vector<std::uint16_t> child_path = node.path;
      child_path.push_back(static_cast<std::uint16_t>(code));
      if (child.task == ctx.tasks.size()) {
        // Leaves are evaluated at generation, never queued: this is what
        // makes the search anytime under the node budget.
        const double objective = placed_cost(ctx, child);
        if (!have_incumbent || objective < incumbent - kEps) {
          incumbent = objective;
          have_incumbent = true;
          best_path = std::move(child_path);
          best_from_search = true;
        }
        continue;
      }
      // max() keeps bounds monotone along a path, tightening the frontier
      // minimum reported on budget exhaustion; still admissible.
      const double bound = std::max(node_bound(ctx, child), node.bound);
      if (have_incumbent && bound >= incumbent - kEps) continue;
      Node child_node;
      child_node.bound = bound;
      child_node.seq = seq++;
      child_node.path = std::move(child_path);
      frontier.push(std::move(child_node));
    }
  }

  PAMO_COUNT("sched.bnb_nodes", expanded);
  PAMO_COUNT("sched.bnb_budget_exhausted", budget_exhausted ? 1 : 0);

  // ---- Status assembly ---------------------------------------------------
  // The four-way split is the point of this engine: a drained frontier is a
  // *proof* (optimal or infeasible), an exhausted budget never is.
  BnbResult result;
  if (have_incumbent) {
    if (best_from_search) {
      result = build_result(ctx, best_path, incumbent);
    } else {
      result.schedule = std::move(seed_schedule);
      result.objective = incumbent;
    }
    if (budget_exhausted) {
      result.status = BnbStatus::kFeasibleBudget;
      result.lower_bound = std::min(frontier.top().bound, result.objective);
    } else {
      result.status = BnbStatus::kOptimal;
      result.lower_bound = result.objective;
    }
  } else if (budget_exhausted) {
    result.status = BnbStatus::kUnknown;
    result.objective = kInf;
    result.lower_bound = frontier.top().bound;
  } else {
    result = infeasible_result();
  }
  result.nodes_expanded = expanded;
  PAMO_ENSURES(result.status != BnbStatus::kInfeasible || !budget_exhausted,
               "budget exhaustion must never be reported as infeasibility");
  return result;
}

}  // namespace

const char* bnb_status_name(BnbStatus status) {
  switch (status) {
    case BnbStatus::kOptimal:
      return "optimal";
    case BnbStatus::kFeasibleBudget:
      return "feasible_budget";
    case BnbStatus::kInfeasible:
      return "infeasible";
    case BnbStatus::kUnknown:
      return "unknown";
  }
  PAMO_CHECK(false, "bnb_status_name requires a valid BnbStatus");
}

BnbResult schedule_bnb(const eva::Workload& workload,
                       const eva::JointConfig& config,
                       const BnbOptions& options) {
  PAMO_SPAN("sched.bnb");
  PAMO_COUNT("sched.bnb_calls", 1);
  return run_bnb(workload, config, options, /*previous=*/nullptr,
                 /*usable_in=*/nullptr, /*headroom=*/1.0);
}

BnbResult reschedule_bnb_pinned(const eva::Workload& workload,
                                const eva::JointConfig& config,
                                const ScheduleResult& previous,
                                const std::vector<bool>& server_usable,
                                double proc_headroom,
                                const BnbOptions& options) {
  PAMO_SPAN("sched.bnb_pinned");
  PAMO_COUNT("sched.bnb_pinned_calls", 1);
  PAMO_CHECK(previous.feasible,
             "pinned repair requires a feasible previous schedule");
  return run_bnb(workload, config, options, &previous, &server_usable,
                 proc_headroom);
}

}  // namespace pamo::sched
