// Google-benchmark microbenchmarks of the substrates: dense Cholesky, GP
// fit/posterior, preference-GP Laplace, Hungarian assignment, Algorithm 1,
// the qNEI scoring kernel, and simulator throughput.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bo/acquisition.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "la/cholesky.hpp"
#include "pref/preference_gp.hpp"
#include "sched/hungarian.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pamo;

la::Matrix random_spd(std::size_t n, Rng& rng) {
  la::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  la::Matrix a = la::matmul(b, b.transposed());
  a.add_diagonal(static_cast<double>(n));
  return a;
}

void BM_Cholesky(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = random_spd(n, rng);
  for (auto _ : state) {
    la::Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_det());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Cholesky)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Complexity();

/// The 6 × 5 (resolution, fps) knob grid the outcome GPs live on.
std::vector<std::vector<double>> knob_grid() {
  std::vector<std::vector<double>> grid;
  for (const double r : {360.0, 480.0, 600.0, 720.0, 840.0, 960.0}) {
    for (const double f : {1.0, 2.0, 5.0, 10.0, 15.0}) grid.push_back({r, f});
  }
  return grid;
}

/// `n` observations drawn uniformly from the knob grid.
void grid_data(std::size_t n, Rng& rng, std::vector<std::size_t>& at,
               std::vector<double>& y) {
  const auto grid = knob_grid();
  for (std::size_t i = 0; i < n; ++i) {
    at.push_back(rng.uniform_index(grid.size()));
    const auto& x = grid[at.back()];
    y.push_back(std::sin(x[0] / 300.0) + 0.1 * x[1] + 0.05 * rng.normal());
  }
}

void BM_GpFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::size_t> at;
  std::vector<double> y;
  grid_data(n, rng, at, y);
  gp::GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 60;
  for (auto _ : state) {
    gp::GpRegressor gp(knob_grid(), options);
    gp.fit(at, y);
    benchmark::DoNotOptimize(gp.predict_mean(12));
  }
}
BENCHMARK(BM_GpFit)->Arg(64)->Arg(128)->Arg(256);

void BM_GpPosterior(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::size_t> at;
  std::vector<double> y;
  grid_data(200, rng, at, y);
  gp::GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  gp::GpRegressor gp(knob_grid(), options);
  gp.fit(at, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.posterior().covariance(7, 7));
  }
}
BENCHMARK(BM_GpPosterior);

void BM_PreferenceLaplace(benchmark::State& state) {
  const auto pairs = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 30; ++i) {
    std::vector<double> y(5);
    for (auto& v : y) v = rng.uniform();
    points.push_back(std::move(y));
  }
  std::vector<pref::ComparisonPair> comparisons;
  for (std::size_t v = 0; v < pairs; ++v) {
    const std::size_t a = rng.uniform_index(points.size());
    std::size_t b = (a + 1 + rng.uniform_index(points.size() - 1)) %
                    points.size();
    comparisons.push_back({a, b});
  }
  for (auto _ : state) {
    pref::PreferenceGp model;
    model.fit(points, comparisons);
    benchmark::DoNotOptimize(model.utility_mean(points[0]));
  }
}
BENCHMARK(BM_PreferenceLaplace)->Arg(9)->Arg(18)->Arg(36);

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  la::Matrix cost(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) cost(i, j) = rng.uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::solve_assignment(cost).total_cost);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

// Args: (streams, servers, top_knobs). Random knobs on 8 servers mostly
// pack; 12 streams at the top knobs on 1 server is an overloaded fleet
// shard, which the load screen rejects before splitting or packing.
void BM_Algorithm1(benchmark::State& state) {
  const auto streams = static_cast<std::size_t>(state.range(0));
  const auto servers = static_cast<std::size_t>(state.range(1));
  const eva::Workload w = eva::make_workload(streams, servers, 6);
  Rng rng(7);
  eva::JointConfig config;
  for (std::size_t i = 0; i < streams; ++i) {
    config.push_back(state.range(2) != 0
                         ? eva::StreamConfig{w.space.resolutions().back(),
                                             w.space.fps_knobs().back()}
                         : eva::StreamConfig{
                               w.space.resolutions()[rng.uniform_index(3)],
                               w.space.fps_knobs()[rng.uniform_index(5)]});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::schedule_zero_jitter(w, config).feasible);
  }
}
BENCHMARK(BM_Algorithm1)
    ->ArgNames({"streams", "servers", "top_knobs"})
    ->Args({8, 8, 0})
    ->Args({16, 8, 0})
    ->Args({32, 8, 0})
    ->Args({12, 1, 1});

void BM_QneiScoring(benchmark::State& state) {
  const auto candidates = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  la::Matrix z(64, candidates);
  la::Matrix obs(64, 8);
  for (std::size_t s = 0; s < 64; ++s) {
    for (std::size_t c = 0; c < candidates; ++c) z(s, c) = rng.normal();
    for (std::size_t c = 0; c < 8; ++c) obs(s, c) = rng.normal();
  }
  bo::AcquisitionOptions options;
  options.type = bo::AcquisitionType::kQNEI;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bo::acquisition_scores(options, z, &obs, 0.0).front());
  }
}
BENCHMARK(BM_QneiScoring)->Arg(64)->Arg(256)->Arg(1024);

void BM_Simulator(benchmark::State& state) {
  const eva::Workload w = eva::make_workload(8, 5, 9);
  eva::JointConfig config(8, {960, 15});
  const auto schedule = sched::schedule_zero_jitter(w, config);
  sim::SimOptions options;
  options.horizon_seconds = 4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(w, schedule, options).mean_latency);
  }
}
BENCHMARK(BM_Simulator);

}  // namespace

BENCHMARK_MAIN();
