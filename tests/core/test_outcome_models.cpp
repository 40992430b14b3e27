#include "core/outcome_models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/json.hpp"

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
    if (m == 3) metric.set("y_raw", obs::json::Value::array());
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

}  // namespace
}  // namespace pamo::core
