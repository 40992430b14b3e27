// Deterministic perf-regression harness for the BO/GP hot path.
//
// Two lanes, both self-verifying before they report a time:
//
//   gp_update  A single GP grown by update() batches to n_final points,
//              with a posterior over a fixed query set after every batch —
//              the full-refit path (incremental off) against the O(n²)
//              factor-extension path (incremental on). The two final
//              posteriors must agree bit-for-bit or the bench fails.
//
//   epoch      A decision-loop epoch in the shape of PaMO Phase 3: five
//              outcome GPs over the knob grid, per-iteration joint sample
//              tables, a flattened candidate-scoring sweep, and a batch
//              model update. Baseline = incremental off + 1-worker pool;
//              optimized = incremental on + 8-worker pool. The per-
//              iteration best-score traces of baseline, optimized@1 and
//              optimized@8 must all be bit-identical or the bench fails —
//              the speedup is only reportable because the answer is
//              provably unchanged.
//
// Wall-clock is best-of-N (3 by default). Flags:
//   --smoke          small sizes (CI-friendly, a few seconds)
//   --out PATH       write BENCH_hot_path.json-style report (default
//                    BENCH_hot_path.json)
//   --check PATH     compare against a committed baseline JSON and exit
//                    nonzero when either optimized lane regressed by more
//                    than 20% wall-clock
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/outcome_models.hpp"
#include "eva/clip.hpp"
#include "eva/config.hpp"
#include "eva/profiler.hpp"
#include "gp/gp_regressor.hpp"
#include "la/matrix.hpp"

namespace {

using pamo::Rng;
using pamo::ThreadPool;

struct Sizes {
  // gp_update lane.
  std::size_t gp_initial = 32;
  std::size_t gp_batch = 8;
  std::size_t gp_final = 256;
  std::size_t gp_queries = 64;
  // epoch lane.
  std::size_t init_profiles = 320;
  std::size_t iterations = 10;
  std::size_t profiles_per_iter = 16;
  std::size_t mc_samples = 64;
  std::size_t candidates = 256;
  std::size_t streams = 6;
  std::size_t repeats = 3;
};

Sizes smoke_sizes() {
  Sizes s;
  s.gp_initial = 24;
  s.gp_final = 96;
  s.gp_queries = 32;
  s.init_profiles = 64;
  s.iterations = 6;
  s.mc_samples = 24;
  s.candidates = 96;
  return s;
}

// ---- gp_update lane --------------------------------------------------------

pamo::gp::KernelParams bench_params(std::size_t dim) {
  pamo::gp::KernelParams p;
  p.log_lengthscales.assign(dim, std::log(0.35));
  p.log_signal_var = std::log(1.1);
  p.log_noise_var = std::log(1e-3);
  return p;
}

double synth_target(const std::vector<double>& x) {
  return std::sin(3.0 * x[0]) + 0.5 * std::cos(2.0 * x[1]) +
         0.25 * x[0] * x[1];
}

struct GpLaneResult {
  double ms = 0.0;
  pamo::gp::Posterior final_posterior;
};

GpLaneResult run_gp_lane(bool incremental, const Sizes& sz) {
  pamo::gp::GpOptions options;
  options.fixed_params = bench_params(2);
  options.incremental = incremental;
  pamo::gp::GpRegressor gp(options);

  Rng rng(0xBE9C0001ULL);
  auto draw = [&rng](std::size_t n) {
    std::vector<std::vector<double>> x(n, std::vector<double>(2));
    for (auto& row : x) {
      for (auto& v : row) v = rng.uniform(0.0, 1.0);
    }
    return x;
  };
  auto targets = [](const std::vector<std::vector<double>>& x) {
    std::vector<double> y;
    y.reserve(x.size());
    for (const auto& row : x) y.push_back(synth_target(row));
    return y;
  };

  auto x0 = draw(sz.gp_initial);
  // Corner anchors pin the min-max input box to [0,1]² so every later
  // batch is inside it and the incremental path stays eligible.
  x0.push_back({0.0, 0.0});
  x0.push_back({1.0, 1.0});
  gp.fit(x0, targets(x0));

  Rng qrng(0xBE9C0002ULL);
  std::vector<std::vector<double>> query(sz.gp_queries,
                                         std::vector<double>(2));
  for (auto& row : query) {
    for (auto& v : row) v = qrng.uniform(0.05, 0.95);
  }

  GpLaneResult result;
  const double start = pamo::bench::now_ms();
  while (gp.num_points() < sz.gp_final) {
    const auto xb = draw(sz.gp_batch);
    gp.update(xb, targets(xb));
    result.final_posterior = gp.posterior(query);
  }
  result.ms = pamo::bench::now_ms() - start;
  return result;
}

bool posteriors_identical(const pamo::gp::Posterior& a,
                          const pamo::gp::Posterior& b) {
  if (a.mean.size() != b.mean.size()) return false;
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    if (a.mean[i] != b.mean[i]) return false;  // pamo-analyze: allow(float-eq)
  }
  if (a.covariance.rows() != b.covariance.rows() ||
      a.covariance.cols() != b.covariance.cols()) {
    return false;
  }
  return a.covariance.data() == b.covariance.data();
}

// ---- epoch lane ------------------------------------------------------------

struct EpochResult {
  double ms = 0.0;
  std::vector<double> trace;  // best candidate score per iteration
};

EpochResult run_epoch(bool incremental, std::size_t workers,
                      const Sizes& sz) {
  ThreadPool pool(workers);
  ThreadPool::ScopedDefault guard(pool);

  const pamo::eva::ConfigSpace space = pamo::eva::ConfigSpace::standard();
  pamo::eva::ClipLibrary library(6, 77);
  pamo::eva::Profiler profiler;

  pamo::gp::GpOptions gp;
  gp.fixed_params = bench_params(2);
  gp.incremental = incremental;
  pamo::core::OutcomeModels models(space, gp);

  Rng rng(0xBE9C0003ULL);
  auto profile_batch = [&](std::size_t n, std::uint64_t stream) {
    Rng prng = rng.fork(stream);
    std::vector<pamo::eva::StreamConfig> configs;
    std::vector<pamo::eva::StreamMeasurement> ms;
    configs.reserve(n);
    ms.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& clip = library.clip(i % library.size());
      const pamo::eva::StreamConfig c = space.sample(prng);
      Rng mrng = prng.fork(i);
      configs.push_back(c);
      ms.push_back(profiler.measure(clip, c, mrng));
    }
    return std::make_pair(std::move(configs), std::move(ms));
  };

  auto [init_configs, init_ms] = profile_batch(sz.init_profiles, 0);
  models.fit(init_configs, init_ms);

  // Candidate pool: each candidate assigns `streams` knob-grid rows (the
  // shape of a joint configuration resolved through grid_index).
  const std::size_t grid_size = models.grid().size();
  Rng crng(0xBE9C0004ULL);
  std::vector<std::vector<std::size_t>> cand_rows(sz.candidates);
  for (auto& rows : cand_rows) {
    rows.resize(sz.streams);
    for (auto& r : rows) r = crng.uniform_index(grid_size);
  }

  // Fixed metric weights in the shape of a scalarized benefit.
  const double weights[pamo::core::kNumMetrics] = {1.0, -0.45, -0.3, -0.2,
                                                   -0.35};

  EpochResult result;
  result.trace.reserve(sz.iterations);
  const double start = pamo::bench::now_ms();
  for (std::size_t iter = 0; iter < sz.iterations; ++iter) {
    Rng srng = rng.fork(1000 + iter);
    const std::vector<pamo::la::Matrix> tables =
        models.sample_grid_tables(sz.mc_samples, srng);

    std::vector<double> scores(sz.candidates, 0.0);
    const double inv_s = 1.0 / static_cast<double>(sz.mc_samples);
    pamo::parallel_for(
        sz.candidates,
        [&](std::size_t c) {
          double acc = 0.0;
          for (std::size_t s = 0; s < sz.mc_samples; ++s) {
            double util = 0.0;
            for (std::size_t m = 0; m < pamo::core::kNumMetrics; ++m) {
              double metric = 0.0;
              for (const std::size_t row : cand_rows[c]) {
                metric += tables[m](s, row);
              }
              util += weights[m] * metric;
            }
            acc += util * inv_s;
          }
          scores[c] = acc;
        },
        /*grain=*/8);

    double best = scores[0];
    for (const double s : scores) best = std::max(best, s);
    result.trace.push_back(best);

    auto [new_configs, new_ms] =
        profile_batch(sz.profiles_per_iter, 2000 + iter);
    models.update(new_configs, new_ms);
  }
  result.ms = pamo::bench::now_ms() - start;
  return result;
}

// ---- report / baseline check ----------------------------------------------

std::string json_report(const std::string& mode, const Sizes& sz,
                        double full_ms, double incr_ms, double base_ms,
                        double opt_ms) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\n"
      << "  \"schema\": \"pamo.perf_hot_path.v1\",\n"
      << "  \"mode\": \"" << mode << "\",\n"
      << "  \"gp_update\": {\n"
      << "    \"n_final\": " << sz.gp_final << ",\n"
      << "    \"full_ms\": " << full_ms << ",\n"
      << "    \"incremental_ms\": " << incr_ms << ",\n"
      << "    \"speedup\": " << full_ms / incr_ms << "\n"
      << "  },\n"
      << "  \"epoch\": {\n"
      << "    \"iterations\": " << sz.iterations << ",\n"
      << "    \"baseline_ms\": " << base_ms << ",\n"
      << "    \"optimized_ms\": " << opt_ms << ",\n"
      << "    \"speedup\": " << base_ms / opt_ms << "\n"
      << "  }\n"
      << "}\n";
  return out.str();
}

int check_against_baseline(const std::string& baseline_path,
                           double incr_ms, double opt_ms) {
  double base_incr = 0.0;
  double base_opt = 0.0;
  try {
    const pamo::obs::json::Value baseline =
        pamo::bench::read_baseline(baseline_path);
    base_incr = baseline.at("gp_update").at("incremental_ms").as_double();
    base_opt = baseline.at("epoch").at("optimized_ms").as_double();
  } catch (const pamo::Error& e) {
    std::cerr << "perf_hot_path: unusable baseline " << baseline_path << ": "
              << e.what() << "\n";
    return 2;
  }
  constexpr double kTolerance = 1.2;  // fail on >20% wall-clock regression
  int status = 0;
  if (incr_ms > base_incr * kTolerance) {
    std::cerr << "perf_hot_path: gp_update regressed: " << incr_ms
              << " ms vs baseline " << base_incr << " ms\n";
    status = 1;
  }
  if (opt_ms > base_opt * kTolerance) {
    std::cerr << "perf_hot_path: epoch regressed: " << opt_ms
              << " ms vs baseline " << base_opt << " ms\n";
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_hot_path.json";
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::cerr << "usage: perf_hot_path [--smoke] [--out FILE] "
                   "[--check BASELINE]\n";
      return 2;
    }
  }
  const Sizes sz = smoke ? smoke_sizes() : Sizes{};

  // gp_update lane: best-of-N, then the exactness gate.
  double full_ms = 0.0;
  double incr_ms = 0.0;
  GpLaneResult full_run;
  GpLaneResult incr_run;
  for (std::size_t rep = 0; rep < sz.repeats; ++rep) {
    full_run = run_gp_lane(/*incremental=*/false, sz);
    incr_run = run_gp_lane(/*incremental=*/true, sz);
    full_ms = rep == 0 ? full_run.ms : std::min(full_ms, full_run.ms);
    incr_ms = rep == 0 ? incr_run.ms : std::min(incr_ms, incr_run.ms);
  }
  if (!posteriors_identical(full_run.final_posterior,
                            incr_run.final_posterior)) {
    std::cerr << "perf_hot_path: incremental GP posterior diverged from the "
                 "full refit — refusing to report a speedup\n";
    return 1;
  }

  // epoch lane: the two determinism gates, then best-of-N timing.
  EpochResult base_run;
  EpochResult opt_run;
  double base_ms = 0.0;
  double opt_ms = 0.0;
  for (std::size_t rep = 0; rep < sz.repeats; ++rep) {
    base_run = run_epoch(/*incremental=*/false, /*workers=*/1, sz);
    opt_run = run_epoch(/*incremental=*/true, /*workers=*/8, sz);
    base_ms = rep == 0 ? base_run.ms : std::min(base_ms, base_run.ms);
    opt_ms = rep == 0 ? opt_run.ms : std::min(opt_ms, opt_run.ms);
  }
  const EpochResult opt_serial = run_epoch(/*incremental=*/true,
                                           /*workers=*/1, sz);
  if (opt_run.trace != opt_serial.trace) {
    std::cerr << "perf_hot_path: epoch trace differs between 1 and 8 "
                 "worker threads — determinism broken\n";
    return 1;
  }
  if (opt_run.trace != base_run.trace) {
    std::cerr << "perf_hot_path: optimized epoch trace differs from the "
                 "baseline epoch — incremental path changed the answer\n";
    return 1;
  }

  std::cout << "gp_update  n=" << sz.gp_final << "  full " << full_ms
            << " ms  incremental " << incr_ms << " ms  speedup "
            << full_ms / incr_ms << "x\n";
  std::cout << "epoch      iters=" << sz.iterations << "  baseline "
            << base_ms << " ms  optimized " << opt_ms << " ms  speedup "
            << base_ms / opt_ms << "x\n";

  const std::string report =
      json_report(smoke ? "smoke" : "full", sz, full_ms, incr_ms, base_ms,
                  opt_ms);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "perf_hot_path: cannot write " << out_path << "\n";
    return 2;
  }
  out << report;
  std::cout << "wrote " << out_path << "\n";

  if (!check_path.empty()) {
    return check_against_baseline(check_path, incr_ms, opt_ms);
  }
  return 0;
}
