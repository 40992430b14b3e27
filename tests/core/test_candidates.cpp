// core::draw_candidates: the Phase-3 candidate draw in the joint knob
// space (quasi-random coverage plus incumbent mutations), and
// core::schedule_candidate_pool, which turns the draw into the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "ckpt/digest.hpp"
#include "common/error.hpp"
#include "core/pamo.hpp"
#include "sched/shard.hpp"

namespace pamo::core {
namespace {

std::size_t knob_index(std::uint32_t value,
                       const std::vector<std::uint32_t>& knobs) {
  const auto it = std::find(knobs.begin(), knobs.end(), value);
  EXPECT_NE(it, knobs.end()) << value << " is not a knob";
  return static_cast<std::size_t>(it - knobs.begin());
}

/// Every stream of every configuration carries knob values.
void expect_on_grid(const eva::Workload& w,
                    const std::vector<eva::JointConfig>& pool) {
  for (const auto& config : pool) {
    ASSERT_EQ(config.size(), w.num_streams());
    for (const auto& c : config) {
      knob_index(c.resolution, w.space.resolutions());
      knob_index(c.fps, w.space.fps_knobs());
    }
  }
}

/// Knob-index distance between two joint configurations.
std::size_t knob_distance(const eva::Workload& w, const eva::JointConfig& a,
                          const eva::JointConfig& b) {
  const auto gap = [](std::size_t x, std::size_t y) {
    return x > y ? x - y : y - x;
  };
  std::size_t distance = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    distance += gap(knob_index(a[i].resolution, w.space.resolutions()),
                    knob_index(b[i].resolution, w.space.resolutions()));
    distance += gap(knob_index(a[i].fps, w.space.fps_knobs()),
                    knob_index(b[i].fps, w.space.fps_knobs()));
  }
  return distance;
}

eva::JointConfig uniform_config(const eva::Workload& w, std::size_t res,
                                std::size_t fps) {
  return eva::JointConfig(
      w.num_streams(),
      eva::StreamConfig{w.space.resolutions()[res], w.space.fps_knobs()[fps]});
}

TEST(CandidatePool, SizeAndBounds) {
  const eva::Workload w = eva::make_workload(2, 4, 1);
  Rng rng(1);
  PoolOptions options;
  options.num_quasi_random = 50;
  options.mutations_per_incumbent = 10;
  const auto pool = draw_candidates(w, {uniform_config(w, 2, 2)}, options, rng);
  EXPECT_EQ(pool.size(), 60u);
  expect_on_grid(w, pool);
}

TEST(CandidatePool, NoIncumbentsMeansNoMutations) {
  const eva::Workload w = eva::make_workload(3, 4, 2);
  Rng rng(2);
  PoolOptions options;
  options.num_quasi_random = 30;
  EXPECT_EQ(draw_candidates(w, {}, options, rng).size(), 30u);
}

TEST(CandidatePool, MutationsStayNearIncumbent) {
  const eva::Workload w = eva::make_workload(3, 4, 3);
  Rng rng(3);
  PoolOptions options;
  options.num_quasi_random = 0;
  options.mutations_per_incumbent = 40;
  options.mutation_sigma = 0.05;
  const eva::JointConfig incumbent = uniform_config(w, 2, 2);
  const auto pool = draw_candidates(w, {incumbent}, options, rng);
  ASSERT_EQ(pool.size(), 40u);
  for (const auto& config : pool) {
    // At most M coordinates move, each by ~sigma: under a third of a
    // knob cell, so at most one knob step each.
    EXPECT_LE(knob_distance(w, config, incumbent), w.num_streams());
  }
}

TEST(CandidatePool, MutationsDifferFromIncumbent) {
  const eva::Workload w = eva::make_workload(2, 4, 4);
  Rng rng(4);
  PoolOptions options;
  options.num_quasi_random = 0;
  options.mutations_per_incumbent = 10;
  const eva::JointConfig incumbent = uniform_config(w, 2, 2);
  const auto pool = draw_candidates(w, {incumbent}, options, rng);
  // A move smaller than half a knob cell keeps the knob, so some
  // mutations repeat the incumbent; most must not.
  const auto identical = std::count(pool.begin(), pool.end(), incumbent);
  EXPECT_LT(identical, 5);
}

TEST(CandidatePool, DeterministicPerRngState) {
  const eva::Workload w = eva::make_workload(5, 4, 9);
  PoolOptions options;
  Rng a(9);
  Rng b(9);
  const eva::JointConfig incumbent = uniform_config(w, 1, 3);
  EXPECT_EQ(draw_candidates(w, {incumbent}, options, a),
            draw_candidates(w, {incumbent}, options, b));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CandidatePool, RejectsBadDimensions) {
  const eva::Workload w = eva::make_workload(3, 4, 5);
  Rng rng(5);
  PoolOptions options;
  eva::Workload empty = w;
  empty.clips.clear();
  EXPECT_THROW(draw_candidates(empty, {}, options, rng), Error);
}

TEST(CandidatePool, EveryDrawIsOnTheKnobGrid) {
  // Incumbents at both grid corners with sigma = 1: most moves leave the
  // unit cube and are clamped back onto the edge knobs.
  const eva::Workload w = eva::make_workload(6, 4, 6);
  const std::size_t top_res = w.space.resolutions().size() - 1;
  const std::size_t top_fps = w.space.fps_knobs().size() - 1;
  Rng rng(6);
  PoolOptions options;
  options.num_quasi_random = 64;
  options.mutations_per_incumbent = 64;
  options.mutation_sigma = 1.0;
  const auto pool = draw_candidates(
      w, {uniform_config(w, 0, 0), uniform_config(w, top_res, top_fps)},
      options, rng);
  ASSERT_EQ(pool.size(), 192u);
  expect_on_grid(w, pool);
  // Both edges are reached from both corners.
  const auto uses = [&](std::size_t first, std::size_t last, auto knob) {
    return std::any_of(pool.begin() + first, pool.begin() + last,
                       [&](const eva::JointConfig& config) {
                         return std::any_of(config.begin(), config.end(),
                                            knob);
                       });
  };
  for (const auto& [first, last] :
       {std::pair<std::size_t, std::size_t>{64, 128}, {128, 192}}) {
    EXPECT_TRUE(uses(first, last, [&](const eva::StreamConfig& c) {
      return c.resolution == w.space.resolutions().front();
    }));
    EXPECT_TRUE(uses(first, last, [&](const eva::StreamConfig& c) {
      return c.fps == w.space.fps_knobs().back();
    }));
  }
}

// The ConfigSpace unit-cube codec now lives inside draw_candidates: each
// axis splits into K equal cells, an incumbent's knob encodes at its cell's
// midpoint, and a drawn point is clamped to [0, 1] and snapped to the knob
// of its cell. These tests keep checking that codec, through the draw.

/// Mutation-only options (no quasi-random points).
PoolOptions mutations_only(std::size_t mutations, double sigma) {
  PoolOptions options;
  options.num_quasi_random = 0;
  options.mutations_per_incumbent = mutations;
  options.mutation_sigma = sigma;
  return options;
}

TEST(ConfigSpace, FromUnitSnapsToEdges) {
  // A move far larger than the cube leaves it on every mutated coordinate,
  // so the clamp sends each one to exactly 0 or 1: the first or last knob.
  const eva::Workload w = eva::make_workload(1, 4, 11);
  const auto& res = w.space.resolutions();
  const auto& fps = w.space.fps_knobs();
  const eva::JointConfig incumbent{{res[1], fps[1]}};
  Rng rng(11);
  const auto pool =
      draw_candidates(w, {incumbent}, mutations_only(200, 1e6), rng);
  ASSERT_EQ(pool.size(), 200u);
  std::vector<eva::StreamConfig> seen;
  for (const auto& config : pool) {
    // One stream: each mutation moves exactly one of its two coordinates.
    const eva::StreamConfig c = config.front();
    const bool res_moved = c.resolution != incumbent.front().resolution;
    const bool fps_moved = c.fps != incumbent.front().fps;
    ASSERT_NE(res_moved, fps_moved);
    if (res_moved) {
      EXPECT_TRUE(c.resolution == res.front() || c.resolution == res.back());
    } else {
      EXPECT_TRUE(c.fps == fps.front() || c.fps == fps.back());
    }
    seen.push_back(c);
  }
  // Both edges of both axes are reached, from below and from above.
  for (const eva::StreamConfig edge :
       {eva::StreamConfig{res.front(), fps[1]},
        eva::StreamConfig{res.back(), fps[1]},
        eva::StreamConfig{res[1], fps.front()},
        eva::StreamConfig{res[1], fps.back()}}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), edge), seen.end())
        << edge.resolution << "p@" << edge.fps;
  }
}

TEST(ConfigSpace, UnitRoundTripIsIdentity) {
  // Every (resolution, fps) pair encodes at its midpoints and decodes back
  // to itself when the mutation does not move it.
  const eva::Workload w = eva::make_workload(1, 4, 12);
  Rng rng(12);
  for (const auto r : w.space.resolutions()) {
    for (const auto f : w.space.fps_knobs()) {
      const eva::JointConfig incumbent{{r, f}};
      for (const auto& config :
           draw_candidates(w, {incumbent}, mutations_only(3, 0.0), rng)) {
        EXPECT_EQ(config, incumbent);
      }
    }
  }
}

TEST(ConfigSpace, ToUnitRejectsNonKnob) {
  const eva::Workload w = eva::make_workload(3, 4, 13);
  Rng rng(13);
  const PoolOptions options;
  EXPECT_THROW(draw_candidates(w, {eva::JointConfig(3, {999, 10})}, options,
                               rng),
               Error);
  EXPECT_THROW(draw_candidates(w, {eva::JointConfig(3, {480, 7})}, options,
                               rng),
               Error);
}

TEST(ConfigSpace, JointRoundTrip) {
  const eva::Workload w = eva::make_workload(6, 4, 8);
  Rng setup(8);
  eva::JointConfig incumbent;
  for (int i = 0; i < 6; ++i) incumbent.push_back(w.space.sample(setup));
  Rng rng(8);
  const auto pool =
      draw_candidates(w, {incumbent}, mutations_only(5, 0.0), rng);
  ASSERT_EQ(pool.size(), 5u);
  for (const auto& config : pool) EXPECT_EQ(config, incumbent);
}

TEST(ConfigSpace, JointFromUnitRejectsOddLength) {
  // The encoding has two coordinates per stream, so an incumbent must
  // configure exactly the workload's streams: no more, no fewer.
  const eva::Workload w = eva::make_workload(3, 4, 14);
  Rng rng(14);
  const PoolOptions options;
  EXPECT_THROW(draw_candidates(w, {eva::JointConfig(2, {480, 10})}, options,
                               rng),
               Error);
  EXPECT_THROW(draw_candidates(w, {eva::JointConfig(4, {480, 10})}, options,
                               rng),
               Error);
}

/// The parameter is the mutation scale, in unit-cube lengths: 0 keeps the
/// incumbent, 1 moves most coordinates past an edge of the cube.
class SnapSweep : public ::testing::TestWithParam<double> {};

TEST_P(SnapSweep, EveryUnitValueMapsToAKnob) {
  const eva::Workload w = eva::make_workload(4, 4, 15);
  const std::size_t top_res = w.space.resolutions().size() - 1;
  const std::size_t top_fps = w.space.fps_knobs().size() - 1;
  const std::vector<eva::JointConfig> incumbents{
      uniform_config(w, 0, 0), uniform_config(w, 2, 2),
      uniform_config(w, top_res, top_fps)};
  Rng rng(15);
  const double sigma = GetParam();
  const auto pool =
      draw_candidates(w, incumbents, mutations_only(32, sigma), rng);
  ASSERT_EQ(pool.size(), 96u);
  expect_on_grid(w, pool);
  if (sigma == 0.0) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(pool[i], incumbents[i / 32]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UnitValues, SnapSweep,
                         ::testing::Values(0.0, 0.09, 0.17, 0.33, 0.5, 0.66,
                                           0.83, 0.99, 1.0));

/// FNV digest of a default draw around three seeded incumbents, followed
/// by the generator's next value (so the RNG order is pinned too).
std::uint64_t draw_digest(const eva::Workload& w, std::uint64_t seed) {
  Rng setup(seed);
  std::vector<eva::JointConfig> incumbents(3,
                                           eva::JointConfig(w.num_streams()));
  for (auto& incumbent : incumbents) {
    for (auto& c : incumbent) c = w.space.sample(setup);
  }
  Rng rng(seed + 1);
  const auto pool = draw_candidates(w, incumbents, PoolOptions{}, rng);
  ckpt::Fnv1a h;
  h.mix(std::uint64_t{pool.size()});
  for (const auto& config : pool) {
    for (const auto& c : config) {
      h.mix(std::uint64_t{c.resolution});
      h.mix(std::uint64_t{c.fps});
    }
  }
  h.mix(rng.next_u64());
  return h.value();
}

TEST(CandidatePool, GoldenDrawMatchesTheUnitCubePool) {
  // The constants were computed with the code draw_candidates replaced: the
  // `bo` module's unit-cube candidate pool, with the incumbents encoded
  // and every point decoded by ConfigSpace's unit-cube codec. So the
  // knob-space draw is bit-identical to it, RNG order included. The draw
  // reads only the stream count and the knob space of a workload.
  EXPECT_EQ(draw_digest(eva::make_workload(12, 4, 7), 7),
            0xfad7e37d2dbd9f2fULL);
  EXPECT_EQ(draw_digest(eva::make_fleet_workload(12, 1, 8), 8),
            0x8050fe970522b81eULL);
}

/// The pool without the load screen in front: every configuration not
/// seen yet enters the seen set and goes through Algorithm 1.
CandidatePool reference_pool(const eva::Workload& w,
                             const std::vector<eva::JointConfig>& candidates,
                             const std::vector<eva::JointConfig>& observed,
                             std::size_t max_feasible) {
  std::set<eva::JointConfig> seen(observed.begin(), observed.end());
  CandidatePool pool;
  for (const auto& config : candidates) {
    if (pool.configs.size() >= max_feasible) break;
    if (!seen.insert(config).second) continue;
    sched::ScheduleResult schedule = sched::schedule_zero_jitter(w, config);
    if (!schedule.feasible) continue;
    pool.configs.push_back(config);
    pool.schedules.push_back(std::move(schedule));
  }
  return pool;
}

void expect_same_pool(const CandidatePool& got, const CandidatePool& want) {
  ASSERT_EQ(got.configs, want.configs);
  ASSERT_EQ(got.schedules.size(), want.schedules.size());
  for (std::size_t i = 0; i < got.schedules.size(); ++i) {
    const sched::ScheduleResult& a = got.schedules[i];
    const sched::ScheduleResult& b = want.schedules[i];
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.phase, b.phase);
    EXPECT_EQ(a.uplink_per_parent, b.uplink_per_parent);
    EXPECT_EQ(a.comm_cost, b.comm_cost);
  }
}

/// The paper testbed shape and a few shards of a seeded fleet.
std::vector<eva::Workload> pool_workloads() {
  std::vector<eva::Workload> workloads = {eva::make_workload(12, 4, 5)};
  const eva::Workload fleet = eva::make_fleet_workload(240, 24, 0x5C4EE);
  const sched::ShardPlan plan = sched::make_shard_plan(fleet, {});
  for (std::size_t s = 0; s < std::min<std::size_t>(4, plan.num_shards());
       ++s) {
    workloads.push_back(sched::shard_workload(fleet, plan, s));
  }
  return workloads;
}

TEST(CandidatePool, LoadScreenBeforeDeduplicationMatchesTheReferenceLoop) {
  std::size_t screened_total = 0;
  std::size_t capped_runs = 0;
  for (const eva::Workload& w : pool_workloads()) {
    // Incumbents: the lightest configuration, which Algorithm 1 passes.
    const eva::JointConfig lightest = uniform_config(w, 0, 0);
    ASSERT_TRUE(sched::schedule_zero_jitter(w, lightest).feasible);
    Rng rng(0xC0DE + w.num_streams());
    std::vector<eva::JointConfig> candidates =
        draw_candidates(w, {lightest, lightest}, PoolOptions{}, rng);
    std::vector<eva::JointConfig> screened;
    std::vector<eva::JointConfig> feasible;
    for (const auto& config : candidates) {
      if (sched::exceeds_load_bound(w, config)) {
        screened.push_back(config);
      } else if (sched::schedule_zero_jitter(w, config).feasible) {
        feasible.push_back(config);
      }
    }
    ASSERT_FALSE(screened.empty());
    ASSERT_GE(feasible.size(), 2u);
    screened_total += screened.size();
    // Screened configurations come back, feasible ones repeat, and one of
    // them is already observed; the shuffle spreads the repeats out.
    candidates.insert(candidates.end(), screened.begin(), screened.end());
    candidates.insert(candidates.end(), feasible.begin(), feasible.end());
    rng.shuffle(candidates);
    const std::vector<eva::JointConfig> observed = {feasible[1], lightest};

    const std::size_t all = reference_pool(w, candidates, observed,
                                           std::numeric_limits<std::size_t>::max())
                                .configs.size();
    ASSERT_GE(all, 1u);
    for (const std::size_t cap :
         {std::numeric_limits<std::size_t>::max(), all, (all + 1) / 2,
          std::size_t{1}}) {
      SCOPED_TRACE(cap);
      const CandidatePool pool =
          schedule_candidate_pool(w, candidates, observed, cap);
      expect_same_pool(pool, reference_pool(w, candidates, observed, cap));
      EXPECT_LE(pool.configs.size(), cap);
      if (cap < all) ++capped_runs;
    }
  }
  EXPECT_GT(screened_total, 0u);
  EXPECT_GT(capped_runs, 0u);
}

TEST(CandidatePool, LoadScreenIsExactlyTheScreenedScheduleResult) {
  for (const eva::Workload& w : pool_workloads()) {
    Rng rng(0x5EED + w.num_streams());
    std::size_t screened = 0;
    std::size_t passed = 0;
    for (const auto& config : draw_candidates(
             w, {uniform_config(w, 0, 0)}, PoolOptions{}, rng)) {
      const sched::ScheduleResult result = sched::schedule_zero_jitter(w, config);
      const bool screened_result = !result.feasible && result.streams.empty();
      EXPECT_EQ(sched::exceeds_load_bound(w, config), screened_result);
      (screened_result ? screened : passed) += 1;
    }
    EXPECT_GT(screened, 0u);
    EXPECT_GT(passed, 0u);
  }
}

}  // namespace
}  // namespace pamo::core
