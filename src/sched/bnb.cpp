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

/// One knob choice for a parent stream: the configuration, its objective
/// penalty, the sub-streams it splits into, and suffix bit sums for the
/// unplaced-tail lower bound (tail_bits[k] = Σ_{j >= k} subs[j].bits).
struct Variant {
  eva::StreamConfig knob;
  double penalty = 0.0;
  std::vector<PeriodicStream> subs;
  std::vector<double> tail_bits;
};

/// The placement work for one parent: choose a variant, then place each of
/// its sub-streams. lb_cost is the cheapest conceivable contribution
/// (min over variants of penalty + bits at the fastest usable uplink).
struct ParentTask {
  std::size_t parent = 0;
  double max_proc = 0.0;  // ordering key: nominal variant's largest p_i
  double lb_cost = 0.0;
  std::vector<Variant> variants;
};

/// Mutable search position, reconstructed from a decision path. Placement
/// codes for the current sub-stream: [0, B) = bound slot (server-pinned
/// group), [B, B+A) = existing anonymous group, B+A = open a new anonymous
/// group (only while fewer anonymous groups than free servers exist).
struct State {
  std::vector<GroupState> bound_groups;
  std::vector<GroupState> anon_groups;
  double committed = 0.0;  // exact: bound-group comm cost + knob penalties
  std::size_t task = 0;
  std::size_t variant = 0;
  std::size_t sub = 0;
  bool in_variant = false;
  std::vector<std::size_t> chosen_variant;            // per task
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
  bool assignment_bound = true;
  std::vector<std::size_t> bound_servers;  // server index per bound slot
  std::vector<std::size_t> free_servers;   // usable servers with no pinning
  std::vector<ParentTask> tasks;
  std::vector<double> suffix_lb;  // suffix_lb[t] = Σ_{t' >= t} lb_cost
  std::vector<PeriodicStream> pinned_streams;
  std::vector<std::size_t> pinned_assignment;
  State root;
};

/// Theorem-1 gcd-condition join (headroom-inflated, same tolerance as the
/// exhaustive search). Mutates `group` only on success.
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
  if (!state.in_variant) {
    if (code >= task.variants.size()) return false;
    state.variant = code;
    state.chosen_variant[state.task] = code;
    state.committed += task.variants[code].penalty;
    state.in_variant = true;
    state.sub = 0;
    if (task.variants[code].subs.empty()) {
      ++state.task;
      state.in_variant = false;
    }
    return true;
  }
  const Variant& variant = task.variants[state.variant];
  const PeriodicStream& stream = variant.subs[state.sub];
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
  if (state.sub == variant.subs.size()) {
    ++state.task;
    state.in_variant = false;
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

/// Lower bound on the eventual cost of the anonymous groups: the optimal
/// injective mapping of their *current* bits onto the free servers (any
/// completion can only grow the groups), or the weaker all-at-the-fastest-
/// uplink sum when the assignment bound is disabled.
double anon_lower_bound(const SearchContext& ctx, const State& state) {
  if (state.anon_groups.empty()) return 0.0;
  if (!ctx.assignment_bound) {
    double bits = 0.0;
    for (const GroupState& group : state.anon_groups) bits += group.bits_sum;
    return bits / (ctx.max_uplink * 1e6);
  }
  return solve_assignment(anon_cost_matrix(ctx, state)).total_cost;
}

/// Admissible lower bound for a partial state: exact committed cost, the
/// assignment relaxation of the anonymous groups, the current variant's
/// unplaced tail at the fastest uplink, and the cheapest-variant suffix of
/// the untouched tasks.
double node_bound(const SearchContext& ctx, const State& state) {
  double bound = state.committed + anon_lower_bound(ctx, state);
  std::size_t next_task = state.task;
  if (state.in_variant) {
    const Variant& variant = ctx.tasks[state.task].variants[state.variant];
    bound += variant.tail_bits[state.sub] / (ctx.max_uplink * 1e6);
    next_task = state.task + 1;
  }
  bound += ctx.suffix_lb[next_task];
  return bound;
}

/// Exact objective of a terminal state: committed cost plus the optimal
/// anonymous-group→free-server assignment (always exact, regardless of
/// the interior-bound mode).
double leaf_objective(const SearchContext& ctx, const State& state) {
  if (state.anon_groups.empty()) return state.committed;
  return state.committed +
         solve_assignment(anon_cost_matrix(ctx, state)).total_cost;
}

/// Rebuild the complete schedule from a terminal decision path: pinned
/// streams keep their servers, placed streams get their group's server
/// (bound slot directly, anonymous groups through the Hungarian mapping),
/// and the chosen knob variants overwrite the nominal configuration.
BnbResult build_result(const SearchContext& ctx, const eva::JointConfig& config,
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
  result.config = config;
  std::vector<PeriodicStream> streams = ctx.pinned_streams;
  std::vector<std::size_t> assignment = ctx.pinned_assignment;
  double penalties = 0.0;
  for (std::size_t t = 0; t < ctx.tasks.size(); ++t) {
    const ParentTask& task = ctx.tasks[t];
    const Variant& variant = task.variants[state.chosen_variant[t]];
    penalties += variant.penalty;
    result.config[task.parent] = variant.knob;
    PAMO_ASSERT(state.placements[t].size() == variant.subs.size(),
                "every sub-stream of a completed task must be placed");
    for (std::size_t s = 0; s < variant.subs.size(); ++s) {
      const std::uint16_t code = state.placements[t][s];
      streams.push_back(variant.subs[s]);
      assignment.push_back(code < ctx.bound_servers.size()
                               ? ctx.bound_servers[code]
                               : anon_server[code - ctx.bound_servers.size()]);
    }
  }
  result.schedule = assemble_zero_jitter(*ctx.workload, std::move(streams),
                                         std::move(assignment), ctx.headroom);
  result.objective = objective;
  const double rebuilt = result.schedule.comm_cost + penalties;
  PAMO_ASSERT(
      std::abs(rebuilt - objective) <= 1e-9 * (1.0 + std::abs(objective)),
      "the incremental objective must match the assembled schedule's cost");
  return result;
}

BnbResult infeasible_result(const eva::JointConfig& config) {
  BnbResult result;
  result.status = BnbStatus::kInfeasible;
  result.config = config;
  result.objective = kInf;
  result.lower_bound = kInf;
  return result;
}

BnbResult run_bnb(const eva::Workload& workload, const eva::JointConfig& config,
                  const BnbOptions& options, const ScheduleResult* previous,
                  const std::vector<bool>* usable_in, double headroom) {
  PAMO_CHECK(config.size() == workload.num_streams(),
             "joint config must cover every stream");
  PAMO_CHECK(options.knob_alternatives.empty() ||
                 options.knob_alternatives.size() == workload.num_streams(),
             "knob_alternatives must be empty or one list per stream");
  PAMO_CHECK(options.degrade_penalty >= 0.0,
             "degrade penalty must be non-negative");
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
  ctx.assignment_bound = options.assignment_bound;

  // ---- Pinned / orphan classification -----------------------------------
  const std::vector<PeriodicStream> nominal = split_streams(workload, config);
  std::vector<std::vector<PeriodicStream>> orphan_subs(workload.num_streams());
  std::vector<bool> parent_pinned(workload.num_streams(), false);
  if (previous != nullptr) {
    PAMO_CHECK(previous->streams.size() == previous->assignment.size(),
               "previous schedule must be internally consistent");
    PAMO_CHECK(previous->streams.size() == nominal.size(),
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
        return infeasible_result(config);
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
    if (previous != nullptr && parent_pinned[p]) {
      // Knob fixed by the schedule under repair; only orphans need placing.
      PAMO_CHECK(options.knob_alternatives.empty() ||
                     options.knob_alternatives[p].empty(),
                 "knob alternatives are not allowed for parents with pinned "
                 "sub-streams");
      if (orphan_subs[p].empty()) continue;
      ParentTask task;
      task.parent = p;
      Variant fixed;
      fixed.knob = config[p];
      fixed.subs = orphan_subs[p];
      task.variants.push_back(std::move(fixed));
      ctx.tasks.push_back(std::move(task));
      continue;
    }
    ParentTask task;
    task.parent = p;
    Variant nominal_variant;
    nominal_variant.knob = config[p];
    if (previous != nullptr) {
      nominal_variant.subs = orphan_subs[p];  // fully orphaned: all subs
    } else {
      for (const PeriodicStream& stream : nominal) {
        if (stream.parent == p) nominal_variant.subs.push_back(stream);
      }
    }
    task.variants.push_back(std::move(nominal_variant));
    if (!options.knob_alternatives.empty()) {
      eva::JointConfig alt_config = config;
      const auto& alternatives = options.knob_alternatives[p];
      for (std::size_t k = 0; k < alternatives.size(); ++k) {
        alt_config[p] = alternatives[k];
        Variant alt;
        alt.knob = alternatives[k];
        alt.penalty = options.degrade_penalty * static_cast<double>(k + 1);
        for (const PeriodicStream& stream :
             split_streams(workload, alt_config)) {
          if (stream.parent == p) alt.subs.push_back(stream);
        }
        task.variants.push_back(std::move(alt));
      }
    }
    ctx.tasks.push_back(std::move(task));
  }

  // ---- Trivial and degenerate roots -------------------------------------
  if (ctx.tasks.empty()) {
    // Nothing to place (empty workload, or a pinned repair with no
    // orphans): the committed placement is the unique — hence optimal —
    // completion.
    BnbResult result = build_result(ctx, config, {}, ctx.root.committed);
    result.status = BnbStatus::kOptimal;
    result.lower_bound = result.objective;
    return result;
  }
  if (!(ctx.max_uplink > 0.0)) {
    // Streams to place but no usable server: proven infeasible.
    return infeasible_result(config);
  }

  // ---- Per-task bounds and deterministic ordering ------------------------
  for (ParentTask& task : ctx.tasks) {
    double cheapest = kInf;
    for (Variant& variant : task.variants) {
      variant.tail_bits.assign(variant.subs.size() + 1, 0.0);
      for (std::size_t k = variant.subs.size(); k > 0; --k) {
        variant.tail_bits[k - 1] =
            variant.tail_bits[k] + variant.subs[k - 1].bits_per_frame;
      }
      cheapest = std::min(cheapest, variant.penalty + variant.tail_bits[0] /
                                                         (ctx.max_uplink * 1e6));
    }
    task.lb_cost = cheapest;
    PAMO_ASSERT(!task.variants.empty(),
                "every task carries at least its nominal variant");
    for (const PeriodicStream& stream : task.variants.front().subs) {
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
  ctx.root.chosen_variant.assign(ctx.tasks.size(), 0);
  ctx.root.placements.assign(ctx.tasks.size(), {});

  // ---- Incumbent seed (anytime behaviour) --------------------------------
  double incumbent = kInf;
  bool have_incumbent = false;
  ScheduleResult seed_schedule;
  if (options.seed_greedy) {
    ScheduleResult greedy =
        previous != nullptr
            ? reschedule_pinned(workload, config, *previous, usable, headroom)
            : schedule_zero_jitter(workload, config);
    if (greedy.feasible) {
      incumbent = greedy.comm_cost;  // nominal knobs: no penalty
      have_incumbent = true;
      seed_schedule = std::move(greedy);
    }
  }

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
        state.in_variant ? ctx.bound_servers.size() + state.anon_groups.size() +
                               1
                         : ctx.tasks[state.task].variants.size();
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
        const double objective = leaf_objective(ctx, child);
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
      result = build_result(ctx, config, best_path, incumbent);
    } else {
      result.schedule = std::move(seed_schedule);
      result.config = config;
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
    result.config = config;
    result.objective = kInf;
    result.lower_bound = frontier.top().bound;
  } else {
    result = infeasible_result(config);
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
