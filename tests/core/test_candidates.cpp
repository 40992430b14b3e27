// core::draw_feasible: the one sampler of configurations Algorithm 1
// schedules (incumbent mutations plus quasi-random coverage of the joint
// knob space), which screens, de-duplicates and schedules each draw as it
// goes and stops at the cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "ckpt/digest.hpp"
#include "common/error.hpp"
#include "common/quasi.hpp"
#include "core/pamo.hpp"
#include "sched/shard.hpp"
#include "support/reference_halton.hpp"

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

/// Every configuration is new, distinct, on the knob grid and carries a
/// feasible Algorithm 1 schedule.
void expect_valid_pool(const eva::Workload& w, const CandidatePool& pool,
                       const std::vector<eva::JointConfig>& observed = {}) {
  ASSERT_EQ(pool.configs.size(), pool.schedules.size());
  expect_on_grid(w, pool.configs);
  const std::set<eva::JointConfig> distinct(pool.configs.begin(),
                                            pool.configs.end());
  EXPECT_EQ(distinct.size(), pool.configs.size());
  for (const auto& config : observed) EXPECT_EQ(distinct.count(config), 0u);
  for (const auto& schedule : pool.schedules) EXPECT_TRUE(schedule.feasible);
}

constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();

TEST(CandidatePool, SizeAndBounds) {
  const eva::Workload w = eva::make_workload(2, 4, 1);
  PoolOptions options;
  options.num_quasi_random = 50;
  options.mutations_per_incumbent = 10;
  const std::vector<eva::JointConfig> incumbents = {uniform_config(w, 2, 2)};
  Rng rng(1);
  const CandidatePool all =
      draw_feasible(w, incumbents, {}, options, kNoCap, rng);
  EXPECT_LE(all.configs.size(), 60u);
  EXPECT_GT(all.configs.size(), 5u);
  expect_valid_pool(w, all);
  // The cap counts kept configurations, and a capped draw is a prefix.
  Rng capped_rng(1);
  const CandidatePool capped =
      draw_feasible(w, incumbents, {}, options, 5, capped_rng);
  ASSERT_EQ(capped.configs.size(), 5u);
  EXPECT_TRUE(std::equal(capped.configs.begin(), capped.configs.end(),
                         all.configs.begin()));
}

TEST(CandidatePool, NoIncumbentsMeansNoMutations) {
  // Without incumbents the draw is Halton points alone, with an attempt
  // budget per wanted configuration instead of num_quasi_random points.
  const eva::Workload w = eva::make_workload(3, 4, 2);
  PoolOptions options;
  options.num_quasi_random = 0;
  options.mutations_per_incumbent = 0;
  Rng a(2);
  const CandidatePool pool = draw_feasible(w, {}, {}, options, 30, a);
  EXPECT_EQ(pool.configs.size(), 30u);
  expect_valid_pool(w, pool);
  options.num_quasi_random = 7;
  options.mutations_per_incumbent = 24;
  Rng b(2);
  EXPECT_EQ(draw_feasible(w, {}, {}, options, 30, b).configs, pool.configs);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CandidatePool, MutationsStayNearIncumbent) {
  const eva::Workload w = eva::make_workload(3, 4, 3);
  Rng rng(3);
  PoolOptions options;
  options.num_quasi_random = 0;
  options.mutations_per_incumbent = 40;
  options.mutation_sigma = 0.05;
  const eva::JointConfig incumbent = uniform_config(w, 2, 2);
  const CandidatePool pool =
      draw_feasible(w, {incumbent}, {}, options, kNoCap, rng);
  ASSERT_FALSE(pool.configs.empty());
  expect_valid_pool(w, pool);
  for (const auto& config : pool.configs) {
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
  const CandidatePool pool =
      draw_feasible(w, {incumbent}, {}, options, kNoCap, rng);
  // A move smaller than half a knob cell keeps the knob, so some
  // mutations repeat the incumbent; the draw keeps one copy at most, and
  // most of what it keeps moved.
  const auto identical =
      std::count(pool.configs.begin(), pool.configs.end(), incumbent);
  EXPECT_LE(identical, 1);
  EXPECT_GE(pool.configs.size(), 4u);
}

TEST(CandidatePool, DeterministicPerRngState) {
  const eva::Workload w = eva::make_workload(5, 4, 9);
  PoolOptions options;
  Rng a(9);
  Rng b(9);
  const eva::JointConfig incumbent = uniform_config(w, 1, 3);
  for (const std::size_t cap : {kNoCap, std::size_t{3}}) {
    EXPECT_EQ(draw_feasible(w, {incumbent}, {}, options, cap, a).configs,
              draw_feasible(w, {incumbent}, {}, options, cap, b).configs);
    EXPECT_EQ(draw_feasible(w, {}, {}, options, cap == kNoCap ? 9 : cap, a)
                  .configs,
              draw_feasible(w, {}, {}, options, cap == kNoCap ? 9 : cap, b)
                  .configs);
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(CandidatePool, RejectsBadDimensions) {
  const eva::Workload w = eva::make_workload(3, 4, 5);
  Rng rng(5);
  PoolOptions options;
  eva::Workload empty = w;
  empty.clips.clear();
  EXPECT_THROW(draw_feasible(empty, {}, {}, options, 4, rng), Error);
}

TEST(CandidatePool, EveryDrawIsOnTheKnobGrid) {
  // Incumbents at either grid corner with sigma = 1: most moves leave the
  // unit cube and are clamped back onto the edge knobs.
  const eva::Workload w = eva::make_workload(3, 4, 6);
  const std::size_t top_res = w.space.resolutions().size() - 1;
  const std::size_t top_fps = w.space.fps_knobs().size() - 1;
  PoolOptions options;
  options.num_quasi_random = 0;
  options.mutations_per_incumbent = 64;
  options.mutation_sigma = 1.0;
  for (const eva::JointConfig& corner :
       {uniform_config(w, 0, 0), uniform_config(w, top_res, top_fps)}) {
    Rng rng(6);
    const CandidatePool pool =
        draw_feasible(w, {corner}, {}, options, kNoCap, rng);
    expect_valid_pool(w, pool);
    // Both edges are reached from both corners.
    const auto uses = [&](auto knob) {
      return std::any_of(pool.configs.begin(), pool.configs.end(),
                         [&](const eva::JointConfig& config) {
                           return std::any_of(config.begin(), config.end(),
                                              knob);
                         });
    };
    EXPECT_TRUE(uses([&](const eva::StreamConfig& c) {
      return c.resolution == w.space.resolutions().front();
    }));
    EXPECT_TRUE(uses([&](const eva::StreamConfig& c) {
      return c.fps == w.space.fps_knobs().back();
    }));
  }
}

// The unit-cube codec lives inside draw_feasible: each axis splits into K
// equal cells, an incumbent's knob encodes at its cell's midpoint, and a
// drawn point is clamped to [0, 1] and snapped to the knob of its cell.
// These tests keep checking that codec, through the draw.

/// Mutation-only options (no quasi-random points).
PoolOptions mutations_only(std::size_t mutations, double sigma) {
  PoolOptions options;
  options.num_quasi_random = 0;
  options.mutations_per_incumbent = mutations;
  options.mutation_sigma = sigma;
  return options;
}

/// What a draw with sigma = 0 keeps: each feasible incumbent once, in
/// order.
std::vector<eva::JointConfig> feasible_once(
    const eva::Workload& w, const std::vector<eva::JointConfig>& incumbents) {
  std::vector<eva::JointConfig> kept;
  for (const auto& config : incumbents) {
    if (std::find(kept.begin(), kept.end(), config) == kept.end() &&
        sched::schedule_zero_jitter(w, config).feasible) {
      kept.push_back(config);
    }
  }
  return kept;
}

TEST(ConfigSpace, FromUnitSnapsToEdges) {
  // A move far larger than the cube leaves it on every mutated coordinate,
  // so the clamp sends each one to exactly 0 or 1: the first or last knob.
  const eva::Workload w = eva::make_workload(1, 4, 11);
  const auto& res = w.space.resolutions();
  const auto& fps = w.space.fps_knobs();
  const eva::JointConfig incumbent{{res[1], fps[1]}};
  Rng rng(11);
  const CandidatePool pool =
      draw_feasible(w, {incumbent}, {}, mutations_only(200, 1e6), kNoCap, rng);
  expect_valid_pool(w, pool);
  for (const auto& config : pool.configs) {
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
  }
  // Both edges of both axes are reached, from below and from above.
  const std::vector<eva::JointConfig> edges = {
      {{res.front(), fps[1]}},
      {{res.back(), fps[1]}},
      {{res[1], fps.front()}},
      {{res[1], fps.back()}}};
  EXPECT_EQ(std::set<eva::JointConfig>(pool.configs.begin(),
                                       pool.configs.end()),
            std::set<eva::JointConfig>(edges.begin(), edges.end()));
}

TEST(ConfigSpace, UnitRoundTripIsIdentity) {
  // Every (resolution, fps) pair encodes at its midpoints and decodes back
  // to itself when the mutation does not move it.
  const eva::Workload w = eva::make_workload(1, 4, 12);
  Rng rng(12);
  for (const auto r : w.space.resolutions()) {
    for (const auto f : w.space.fps_knobs()) {
      const eva::JointConfig incumbent{{r, f}};
      EXPECT_EQ(draw_feasible(w, {incumbent}, {}, mutations_only(3, 0.0),
                              kNoCap, rng)
                    .configs,
                feasible_once(w, {incumbent}));
    }
  }
}

TEST(ConfigSpace, ToUnitRejectsNonKnob) {
  const eva::Workload w = eva::make_workload(3, 4, 13);
  Rng rng(13);
  const PoolOptions options;
  EXPECT_THROW(draw_feasible(w, {eva::JointConfig(3, {999, 10})}, {},
                             options, kNoCap, rng),
               Error);
  EXPECT_THROW(draw_feasible(w, {eva::JointConfig(3, {480, 7})}, {}, options,
                             kNoCap, rng),
               Error);
}

TEST(ConfigSpace, JointRoundTrip) {
  const eva::Workload w = eva::make_workload(6, 4, 8);
  Rng setup(8);
  eva::JointConfig incumbent;
  for (int i = 0; i < 6; ++i) incumbent.push_back(w.space.sample(setup));
  Rng rng(8);
  EXPECT_EQ(
      draw_feasible(w, {incumbent}, {}, mutations_only(5, 0.0), kNoCap, rng)
          .configs,
      feasible_once(w, {incumbent}));
}

TEST(ConfigSpace, JointFromUnitRejectsOddLength) {
  // The encoding has two coordinates per stream, so an incumbent must
  // configure exactly the workload's streams: no more, no fewer.
  const eva::Workload w = eva::make_workload(3, 4, 14);
  Rng rng(14);
  const PoolOptions options;
  EXPECT_THROW(draw_feasible(w, {eva::JointConfig(2, {480, 10})}, {},
                             options, kNoCap, rng),
               Error);
  EXPECT_THROW(draw_feasible(w, {eva::JointConfig(4, {480, 10})}, {},
                             options, kNoCap, rng),
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
  const CandidatePool pool = draw_feasible(
      w, incumbents, {}, mutations_only(32, sigma), kNoCap, rng);
  ASSERT_FALSE(pool.configs.empty());
  expect_valid_pool(w, pool);
  if (sigma == 0.0) {
    EXPECT_EQ(pool.configs, feasible_once(w, incumbents));
  }
}

INSTANTIATE_TEST_SUITE_P(UnitValues, SnapSweep,
                         ::testing::Values(0.0, 0.09, 0.17, 0.33, 0.5, 0.66,
                                           0.83, 0.99, 1.0));

/// FNV digest of a default draw around three seeded incumbents (none when
/// `mutate` is false), followed by the generator's next value (so the RNG
/// order is pinned too).
std::uint64_t draw_digest(const eva::Workload& w, std::uint64_t seed,
                          bool mutate = true) {
  Rng setup(seed);
  std::vector<eva::JointConfig> incumbents(3,
                                           eva::JointConfig(w.num_streams()));
  for (auto& incumbent : incumbents) {
    for (auto& c : incumbent) c = w.space.sample(setup);
  }
  if (!mutate) incumbents.clear();
  Rng rng(seed + 1);
  const CandidatePool pool =
      draw_feasible(w, incumbents, {}, PoolOptions{}, 32, rng);
  ckpt::Fnv1a h;
  h.mix(std::uint64_t{pool.configs.size()});
  for (const auto& config : pool.configs) {
    for (const auto& c : config) {
      h.mix(std::uint64_t{c.resolution});
      h.mix(std::uint64_t{c.fps});
    }
  }
  h.mix(rng.next_u64());
  return h.value();
}

TEST(CandidatePool, GoldenDrawMatchesTheUnitCubePool) {
  // Pins the draw order DESIGN.md ("Candidate draw") documents: the Halton
  // seed, the incumbents' mutations, then the Halton points, narrowed
  // without incumbents; and the RNG draws a capped draw skips. The draw
  // reads only the stream count, the knob space and the feasibility of a
  // workload.
  EXPECT_EQ(draw_digest(eva::make_workload(12, 4, 7), 7),
            0x1c66d951080ab184ULL);
  EXPECT_EQ(draw_digest(eva::make_fleet_workload(12, 1, 8), 8),
            0x320d9787423a65c1ULL);
  EXPECT_EQ(draw_digest(eva::make_fleet_workload(12, 1, 8), 8, false),
            0x2f638a23b44fd685ULL);
}

TEST(CandidatePool, NoIncumbentDrawFillsAFleetShardShape) {
  // Twelve streams on one server: almost no un-narrowed draw passes, so
  // the pool fills only because failures narrow the knob caps.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    const eva::Workload w = eva::make_fleet_workload(12, 1, seed);
    Rng rng(seed);
    const CandidatePool pool =
        draw_feasible(w, {}, {}, PoolOptions{}, 32, rng);
    EXPECT_EQ(pool.configs.size(), 32u);
    expect_valid_pool(w, pool);
  }
}

TEST(CandidatePool, NothingFitsGivesAnEmptyPool) {
  // Even the lightest configuration fails the load screen, and the load
  // grows with every knob, so no configuration fits.
  const eva::Workload w = eva::make_fleet_workload(80, 1, 3);
  const eva::JointConfig lightest = uniform_config(w, 0, 0);
  ASSERT_TRUE(sched::exceeds_load_bound(w, lightest));
  Rng rng(3);
  EXPECT_TRUE(draw_feasible(w, {}, {}, PoolOptions{}, 6, rng).configs.empty());
  EXPECT_TRUE(draw_feasible(w, {lightest}, {}, PoolOptions{}, 6, rng)
                  .configs.empty());
}

TEST(CandidatePool, NeverReturnsAnObservedConfiguration) {
  const eva::Workload w = eva::make_workload(3, 4, 16);
  const eva::JointConfig incumbent = uniform_config(w, 1, 1);
  ASSERT_TRUE(sched::schedule_zero_jitter(w, incumbent).feasible);
  Rng first_rng(16);
  const CandidatePool first =
      draw_feasible(w, {incumbent}, {}, PoolOptions{}, 40, first_rng);
  ASSERT_EQ(first.configs.size(), 40u);
  // Observe what the first draw kept, and the incumbent, then draw again,
  // with and without incumbents. From the first draw's RNG state every
  // mutation repeats an observed configuration.
  std::vector<eva::JointConfig> observed = first.configs;
  observed.push_back(incumbent);
  Rng same(16);
  EXPECT_TRUE(draw_feasible(w, {incumbent}, observed, mutations_only(24, 0.18),
                            40, same)
                  .configs.empty());
  for (const bool mutate : {true, false}) {
    Rng rng(17);
    const CandidatePool again = draw_feasible(
        w, mutate ? std::vector<eva::JointConfig>{incumbent}
                  : std::vector<eva::JointConfig>{},
        observed, PoolOptions{}, 40, rng);
    EXPECT_EQ(again.configs.size(), 40u);
    expect_valid_pool(w, again, observed);
  }
}

/// The candidates a draw with incumbents generates, all of them, in order,
/// drawn eagerly with the RNG order DESIGN.md documents: one next_u64
/// seeds the Halton sequence, then each incumbent's mutations, then
/// options.num_quasi_random Halton points.
std::vector<eva::JointConfig> eager_candidates(
    const eva::Workload& w, const std::vector<eva::JointConfig>& incumbents,
    const PoolOptions& options, Rng& rng) {
  const std::size_t m = w.num_streams();
  const auto& res = w.space.resolutions();
  const auto& fps = w.space.fps_knobs();
  const auto snap = [](double u, const std::vector<std::uint32_t>& knobs) {
    const auto k = static_cast<std::size_t>(std::clamp(u, 0.0, 1.0) *
                                            static_cast<double>(knobs.size()));
    return knobs[std::min(k, knobs.size() - 1)];
  };
  const auto decode = [&](const std::vector<double>& u) {
    eva::JointConfig config(m);
    for (std::size_t i = 0; i < m; ++i) {
      config[i] = {snap(u[2 * i], res), snap(u[2 * i + 1], fps)};
    }
    return config;
  };
  const auto midpoint = [](std::size_t k, std::size_t size) {
    return (static_cast<double>(k) + 0.5) / static_cast<double>(size);
  };
  std::vector<eva::JointConfig> list;
  HaltonSequence halton(2 * m, rng.next_u64());
  for (const auto& incumbent : incumbents) {
    std::vector<double> unit(2 * m);
    for (std::size_t i = 0; i < m; ++i) {
      unit[2 * i] = midpoint(knob_index(incumbent[i].resolution, res),
                             res.size());
      unit[2 * i + 1] =
          midpoint(knob_index(incumbent[i].fps, fps), fps.size());
    }
    for (std::size_t k = 0; k < options.mutations_per_incumbent; ++k) {
      std::vector<double> mutated = unit;
      const std::size_t num_mutated = 1 + rng.uniform_index(m);
      for (std::size_t j = 0; j < num_mutated; ++j) {
        double& coord = mutated[rng.uniform_index(2 * m)];
        coord = std::clamp(coord + rng.normal(0.0, options.mutation_sigma),
                           0.0, 1.0);
      }
      list.push_back(decode(mutated));
    }
  }
  for (std::size_t i = 0; i < options.num_quasi_random; ++i) {
    list.push_back(decode(halton.next()));
  }
  return list;
}

/// The pool drawn eagerly, without the load screen in front: every
/// configuration not seen yet enters the seen set and goes through
/// Algorithm 1.
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
  // The lazy draw keeps exactly what screening, de-duplicating and
  // scheduling the eagerly drawn list keeps, at every cap.
  std::size_t screened_total = 0;
  std::size_t repeats_total = 0;
  std::size_t capped_runs = 0;
  for (const eva::Workload& w : pool_workloads()) {
    // Incumbents: the lightest configuration, which Algorithm 1 passes,
    // twice, so mutations repeat; one kept draw is already observed.
    const eva::JointConfig lightest = uniform_config(w, 0, 0);
    ASSERT_TRUE(sched::schedule_zero_jitter(w, lightest).feasible);
    const std::vector<eva::JointConfig> incumbents = {lightest, lightest};
    const std::uint64_t seed = 0xC0DE + w.num_streams();
    Rng eager_rng(seed);
    const std::vector<eva::JointConfig> candidates =
        eager_candidates(w, incumbents, PoolOptions{}, eager_rng);
    const CandidatePool unobserved =
        reference_pool(w, candidates, {}, kNoCap);
    ASSERT_GE(unobserved.configs.size(), 2u);
    const std::vector<eva::JointConfig> observed = {unobserved.configs[1],
                                                    lightest};
    for (const auto& config : candidates) {
      if (sched::exceeds_load_bound(w, config)) ++screened_total;
    }
    repeats_total +=
        candidates.size() -
        std::set<eva::JointConfig>(candidates.begin(), candidates.end()).size();

    const std::size_t all =
        reference_pool(w, candidates, observed, kNoCap).configs.size();
    ASSERT_GE(all, 1u);
    for (const std::size_t cap : {kNoCap, all, (all + 1) / 2, std::size_t{1}}) {
      SCOPED_TRACE(cap);
      Rng rng(seed);
      const CandidatePool pool =
          draw_feasible(w, incumbents, observed, PoolOptions{}, cap, rng);
      expect_same_pool(pool, reference_pool(w, candidates, observed, cap));
      EXPECT_LE(pool.configs.size(), cap);
      if (cap == kNoCap) {
        // Uncapped, the lazy draw makes every RNG draw the eager one does.
        Rng after = eager_rng;
        EXPECT_EQ(rng.next_u64(), after.next_u64());
      }
      if (cap < all) ++capped_runs;
    }
  }
  EXPECT_GT(screened_total, 0u);
  EXPECT_GT(repeats_total, 0u);
  EXPECT_GT(capped_runs, 0u);
}

TEST(CandidatePool, LoadScreenIsExactlyTheScreenedScheduleResult) {
  for (const eva::Workload& w : pool_workloads()) {
    Rng rng(0x5EED + w.num_streams());
    std::size_t screened = 0;
    std::size_t passed = 0;
    for (const auto& config : eager_candidates(
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

/// The draw in its decoding form: every point becomes a configuration
/// before exceeds_load_bound screens it, an ordered set de-duplicates, and
/// the Halton points come from the division-based radical inverse. Same
/// RNG order as draw_feasible.
CandidatePool decoding_draw(const eva::Workload& w,
                            const std::vector<eva::JointConfig>& incumbents,
                            const std::vector<eva::JointConfig>& observed,
                            const PoolOptions& options,
                            std::size_t max_feasible, Rng& rng) {
  const std::size_t m = w.num_streams();
  const auto& res = w.space.resolutions();
  const auto& fps = w.space.fps_knobs();
  const auto snap = [](double u, const std::vector<std::uint32_t>& knobs,
                       std::size_t narrow) {
    const std::size_t cells =
        knobs.size() > narrow ? knobs.size() - narrow : 1;
    const auto k = static_cast<std::size_t>(std::clamp(u, 0.0, 1.0) *
                                            static_cast<double>(cells));
    return knobs[std::min(k, cells - 1)];
  };
  const auto decode = [&](const std::vector<double>& u, std::size_t narrow) {
    eva::JointConfig config(m);
    for (std::size_t i = 0; i < m; ++i) {
      config[i] = {snap(u[2 * i], res, narrow),
                   snap(u[2 * i + 1], fps, narrow)};
    }
    return config;
  };
  const auto midpoint = [](std::size_t k, std::size_t size) {
    return (static_cast<double>(k) + 0.5) / static_cast<double>(size);
  };
  std::set<eva::JointConfig> seen(observed.begin(), observed.end());
  CandidatePool pool;
  const auto full = [&] { return pool.configs.size() >= max_feasible; };
  const auto keep = [&](eva::JointConfig config) {
    if (sched::exceeds_load_bound(w, config)) return false;
    if (!seen.insert(config).second) return false;
    sched::ScheduleResult schedule = sched::schedule_zero_jitter(w, config);
    if (!schedule.feasible) return false;
    pool.configs.push_back(std::move(config));
    pool.schedules.push_back(std::move(schedule));
    return true;
  };
  testing::ReferenceHalton halton(2 * m, rng.next_u64());
  for (const auto& incumbent : incumbents) {
    std::vector<double> unit(2 * m);
    for (std::size_t i = 0; i < m; ++i) {
      unit[2 * i] = midpoint(knob_index(incumbent[i].resolution, res),
                             res.size());
      unit[2 * i + 1] =
          midpoint(knob_index(incumbent[i].fps, fps), fps.size());
    }
    for (std::size_t k = 0; k < options.mutations_per_incumbent && !full();
         ++k) {
      std::vector<double> mutated = unit;
      const std::size_t num_mutated = 1 + rng.uniform_index(m);
      for (std::size_t j = 0; j < num_mutated; ++j) {
        double& coord = mutated[rng.uniform_index(2 * m)];
        coord = std::clamp(coord + rng.normal(0.0, options.mutation_sigma),
                           0.0, 1.0);
      }
      keep(decode(mutated, 0));
    }
  }
  const bool narrowing = incumbents.empty();
  const std::size_t attempts =
      narrowing ? 64 * max_feasible : options.num_quasi_random;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < attempts && !full(); ++i) {
    const bool kept =
        keep(decode(halton.next(), narrowing ? failures / 8 : 0));
    failures = kept ? 0 : failures + 1;
  }
  return pool;
}

TEST(CandidatePool, ScreenFirstDrawEqualsTheDecodingDraw) {
  // The testbed shape, and a 12-stream shard of fleet_cold's shape on one
  // or two servers.
  std::vector<eva::Workload> workloads = {eva::make_workload(12, 4, 1)};
  const eva::Workload fleet = eva::make_fleet_workload(1000, 100, 1);
  const sched::ShardPlan plan = sched::make_shard_plan(fleet, {});
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    if (plan.stream_ids[s].size() == 12 && plan.server_ids[s].size() <= 2) {
      workloads.push_back(sched::shard_workload(fleet, plan, s));
      break;
    }
  }
  ASSERT_EQ(workloads.size(), 2u) << "no 12-stream shard on 1-2 servers";
  std::size_t kept = 0;
  std::size_t excluded = 0;
  for (const eva::Workload& w : workloads) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      SCOPED_TRACE(seed);
      // No incumbents: the narrowing draw.
      Rng a(seed);
      Rng b(seed);
      const CandidatePool narrowed =
          draw_feasible(w, {}, {}, PoolOptions{}, 4, a);
      expect_same_pool(narrowed,
                       decoding_draw(w, {}, {}, PoolOptions{}, 4, b));
      EXPECT_EQ(a.next_u64(), b.next_u64());
      // Incumbents, and exclusions that bite: the incumbents themselves
      // and the first configurations the same draw keeps without them.
      if (narrowed.configs.empty()) continue;
      const std::vector<eva::JointConfig>& incumbents = narrowed.configs;
      Rng probe(seed + 1000);
      std::vector<eva::JointConfig> observed = incumbents;
      const CandidatePool open =
          decoding_draw(w, incumbents, {}, PoolOptions{}, 48, probe);
      for (std::size_t c = 0; c < std::min<std::size_t>(2, open.configs.size());
           ++c) {
        observed.push_back(open.configs[c]);
      }
      Rng c(seed + 1000);
      Rng d(seed + 1000);
      const CandidatePool pool =
          draw_feasible(w, incumbents, observed, PoolOptions{}, 48, c);
      const CandidatePool want =
          decoding_draw(w, incumbents, observed, PoolOptions{}, 48, d);
      expect_same_pool(pool, want);
      EXPECT_EQ(c.next_u64(), d.next_u64());
      kept += pool.configs.size();
      excluded += open.configs.size() > 0 && pool.configs != open.configs;
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(excluded, 0u);
}

}  // namespace
}  // namespace pamo::core
