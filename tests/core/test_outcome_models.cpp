#include "core/outcome_models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "bo/acquisition.hpp"
#include "common/error.hpp"
#include "common/normal.hpp"
#include "common/stats.hpp"
#include "core/pamo.hpp"
#include "eva/workload.hpp"
#include "obs/json.hpp"
#include "pref/oracle.hpp"
#include "sched/scheduler.hpp"

namespace pamo::core {
namespace {

gp::GpOptions fast_gp() {
  gp::GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 80;
  return options;
}

struct Fixture {
  eva::ConfigSpace space = eva::ConfigSpace::standard();
  eva::ClipLibrary library{6, 77};
  eva::Profiler profiler;

  std::pair<std::vector<eva::StreamConfig>,
            std::vector<eva::StreamMeasurement>>
  sample_profiles(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<eva::StreamConfig> configs;
    std::vector<eva::StreamMeasurement> ms;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& clip = library.clip(i % library.size());
      const eva::StreamConfig c = space.sample(rng);
      Rng mrng = rng.fork(i);
      configs.push_back(c);
      ms.push_back(profiler.measure(clip, c, mrng));
    }
    return {configs, ms};
  }
};

TEST(OutcomeModels, GridCoversKnobSpace) {
  Fixture f;
  OutcomeModels models(f.space, fast_gp());
  EXPECT_EQ(models.grid().size(), f.space.num_knob_combinations());
  EXPECT_FALSE(models.is_fit());
  // Every knob pair resolves to a grid index.
  for (auto r : f.space.resolutions()) {
    for (auto s : f.space.fps_knobs()) {
      const std::size_t g = models.grid_index({r, s});
      EXPECT_EQ(models.grid()[g], (eva::StreamConfig{r, s}));
    }
  }
  EXPECT_THROW((void)models.grid_index({999, 10}), Error);
}

TEST(OutcomeModels, FitPredictsPooledSurfaces) {
  Fixture f;
  OutcomeModels models(f.space, fast_gp());
  auto [configs, ms] = f.sample_profiles(150, 5);
  models.fit(configs, ms);
  ASSERT_TRUE(models.is_fit());

  // Predicted accuracy should track the across-clip mean surface.
  std::vector<double> truth, pred;
  for (const auto& knob : models.grid()) {
    double mean_acc = 0.0;
    for (std::size_t c = 0; c < f.library.size(); ++c) {
      mean_acc += f.library.clip(c).accuracy(knob.resolution, knob.fps);
    }
    truth.push_back(mean_acc / static_cast<double>(f.library.size()));
    pred.push_back(models.mean(Metric::kAccuracy, knob));
  }
  EXPECT_GT(r_squared(truth, pred), 0.85);
}

TEST(OutcomeModels, UpdateImprovesOrKeepsFit) {
  Fixture f;
  OutcomeModels models(f.space, fast_gp());
  auto [c1, m1] = f.sample_profiles(40, 6);
  models.fit(c1, m1);
  auto [c2, m2] = f.sample_profiles(40, 7);
  models.update(c2, m2);
  // Just verify it stays consistent and usable.
  const double v = models.mean(Metric::kProcTime, {960, 10});
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 1.0);
}

TEST(OutcomeModels, SampleTablesHaveRightShapeAndCenter) {
  Fixture f;
  OutcomeModels models(f.space, fast_gp());
  auto [configs, ms] = f.sample_profiles(120, 8);
  models.fit(configs, ms);
  Rng rng(9);
  const auto tables = models.sample_grid_tables(64, rng);
  ASSERT_EQ(tables.size(), kNumMetrics);
  const la::Matrix mean_table = models.mean_grid_table();
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    ASSERT_EQ(tables[m].rows(), 64u);
    ASSERT_EQ(tables[m].cols(), models.grid().size());
    // Sample means should hover near the posterior means.
    for (std::size_t g = 0; g < models.grid().size(); g += 7) {
      double sample_mean = 0.0;
      for (std::size_t s = 0; s < 64; ++s) sample_mean += tables[m](s, g);
      sample_mean /= 64.0;
      const double scale =
          std::max(1e-3, std::fabs(mean_table(m, g)));
      EXPECT_NEAR(sample_mean, mean_table(m, g), 0.5 * scale + 0.05)
          << "metric " << m << " grid " << g;
    }
  }
}

TEST(OutcomeModels, RestoreIsAllOrNothing) {
  Fixture f;
  OutcomeModels source(f.space, fast_gp());
  auto [configs, ms] = f.sample_profiles(40, 21);
  source.fit(configs, ms);
  OutcomeModels target(f.space, fast_gp());
  auto [other_configs, other_ms] = f.sample_profiles(30, 22);
  target.fit(other_configs, other_ms);
  const la::Matrix before = target.mean_grid_table();

  // Metric 3's snapshot is broken: metrics 0–2 decode fine, but none of
  // them may be committed when 3 fails.
  obs::json::Value snap = obs::json::Value::parse(source.snapshot().dump());
  obs::json::Value broken = obs::json::Value::array();
  for (std::size_t m = 0; m < snap.items().size(); ++m) {
    obs::json::Value metric = snap.items()[m];
    if (m == 3) metric.set("cells", obs::json::Value::object());
    broken.push_back(std::move(metric));
  }
  EXPECT_THROW(target.restore(broken), Error);
  EXPECT_EQ(target.num_points(), other_configs.size());
  EXPECT_EQ(target.mean_grid_table().data(), before.data());

  target.restore(snap);
  EXPECT_EQ(target.mean_grid_table().data(), source.mean_grid_table().data());
}

TEST(OutcomeModels, RejectsBadInput) {
  Fixture f;
  OutcomeModels models(f.space, fast_gp());
  EXPECT_THROW(models.fit({{960, 10}}, {{}}), Error);  // < 2 points
  auto [configs, ms] = f.sample_profiles(10, 11);
  ms.pop_back();
  EXPECT_THROW(models.fit(configs, ms), Error);  // size mismatch
  EXPECT_THROW(models.mean_grid_table(), Error);  // before fit
}

TEST(OutcomeModels, LatinHypercubeColumnsAreStratified) {
  constexpr std::size_t kStrata = 16;
  Rng rng(0x1a7e);
  const la::Matrix z = latin_hypercube_normals(kStrata, 30, rng);
  ASSERT_EQ(z.rows(), kStrata);
  ASSERT_EQ(z.cols(), 30u);
  for (std::size_t i = 0; i < z.cols(); ++i) {
    std::vector<std::size_t> hits(kStrata, 0);
    for (std::size_t s = 0; s < kStrata; ++s) {
      const double p = normal_cdf(z(s, i));
      ASSERT_GT(p, 0.0);
      ASSERT_LT(p, 1.0);
      ++hits[static_cast<std::size_t>(p * kStrata)];
    }
    for (std::size_t k = 0; k < kStrata; ++k) {
      EXPECT_EQ(hits[k], 1u) << "column " << i << ", stratum " << k;
    }
  }
}

/// A posterior fitted once on a paper-scale workload, with Algorithm-1-
/// feasible candidates and a few "observed" configurations, scored the
/// way a Phase-3 iteration scores them under the true uniform benefit.
struct QneiFixture {
  eva::Workload workload;
  eva::OutcomeNormalizer normalizer;
  OutcomeModels models;
  std::vector<eva::JointConfig> configs;
  std::vector<sched::ScheduleResult> schedules;
  std::vector<std::vector<std::size_t>> rows;
  static constexpr std::size_t kObserved = 4;

  explicit QneiFixture(std::uint64_t seed)
      : workload(eva::make_workload(12, 4, seed)),
        normalizer(eva::OutcomeNormalizer::for_workload(workload)),
        models(workload.space, PamoOptions{}.gp) {
    Rng rng(seed);
    const Phase1Profiles fit = profile_phase1(workload, 64, rng, nullptr, 0);
    models.fit(fit.configs, fit.measurements);
    for (std::size_t a = 0; a < 4000 && configs.size() < 36; ++a) {
      eva::JointConfig config(workload.num_streams());
      for (auto& c : config) c = workload.space.sample(rng);
      sched::ScheduleResult schedule =
          sched::schedule_zero_jitter(workload, config);
      if (!schedule.feasible) continue;
      std::vector<std::size_t> grid_rows;
      for (const auto& c : config) grid_rows.push_back(models.grid_index(c));
      configs.push_back(std::move(config));
      schedules.push_back(std::move(schedule));
      rows.push_back(std::move(grid_rows));
    }
  }

  /// qNEI score of every non-observed candidate under the given tables.
  std::vector<double> scores(const std::vector<la::Matrix>& tables) const {
    const pref::BenefitFunction benefit = pref::BenefitFunction::uniform();
    const std::size_t num_samples = tables.front().rows();
    const std::size_t num_pool = configs.size() - kObserved;
    la::Matrix z_pool(num_samples, num_pool);
    la::Matrix z_obs(num_samples, kObserved);
    for (std::size_t s = 0; s < num_samples; ++s) {
      for (std::size_t c = 0; c < configs.size(); ++c) {
        const double u = benefit.value(normalizer.normalize(outcomes_from_rows(
            tables, s, rows[c], configs[c], schedules[c])));
        if (c < kObserved) {
          z_obs(s, c) = u;
        } else {
          z_pool(s, c - kObserved) = u;
        }
      }
    }
    return bo::acquisition_scores({}, z_pool, &z_obs, 0.0);
  }
};

/// Plain Monte-Carlo normals in the order the pre-Latin-hypercube sampler
/// drew them (metric, then sample, then grid column).
std::vector<la::Matrix> plain_normals(std::size_t num_samples,
                                      std::size_t columns, Rng& rng) {
  std::vector<la::Matrix> normals;
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    la::Matrix z(num_samples, columns);
    for (std::size_t s = 0; s < num_samples; ++s) {
      for (std::size_t i = 0; i < columns; ++i) z(s, i) = rng.normal();
    }
    normals.push_back(std::move(z));
  }
  return normals;
}

/// Mean over candidates of the qNEI score's variance across 60 draw seeds.
template <typename Draw>
double mean_score_variance(const QneiFixture& f, Draw&& draw) {
  constexpr std::size_t kDraws = 60;
  std::vector<std::vector<double>> runs;
  for (std::size_t d = 0; d < kDraws; ++d) {
    Rng rng(0x5eed0000ULL + d);
    runs.push_back(f.scores(draw(rng)));
  }
  double total = 0.0;
  for (std::size_t c = 0; c < runs.front().size(); ++c) {
    double mean = 0.0;
    for (const auto& run : runs) mean += run[c];
    mean /= kDraws;
    double var = 0.0;
    for (const auto& run : runs) var += (run[c] - mean) * (run[c] - mean);
    total += var / (kDraws - 1);
  }
  return total / static_cast<double>(runs.front().size());
}

TEST(OutcomeModels, LatinHypercubeAtSixteenScoresAsSteadilyAsPlainAtForty) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const QneiFixture f(seed);
    ASSERT_GE(f.configs.size(), 20u) << "seed " << seed;
    const std::size_t grid = f.models.grid().size();
    const double lhs16 = mean_score_variance(
        f, [&](Rng& rng) { return f.models.sample_grid_tables(16, rng); });
    const double plain40 = mean_score_variance(f, [&](Rng& rng) {
      return f.models.colour_grid_tables(plain_normals(40, grid, rng));
    });
    const double plain16 = mean_score_variance(f, [&](Rng& rng) {
      return f.models.colour_grid_tables(plain_normals(16, grid, rng));
    });
    EXPECT_GT(lhs16, 0.0) << "seed " << seed;
    EXPECT_LE(lhs16, plain40) << "seed " << seed;
    EXPECT_LT(lhs16, plain16) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pamo::core
