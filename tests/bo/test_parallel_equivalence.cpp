// Thread-count invariance of the parallel hot path: every fanned-out loop
// (acquisition scoring, outcome-model sampling) must produce bit-for-bit
// identical results whether the work runs inline on one thread or across an
// 8-worker pool. Randomness is pre-drawn serially in a fixed order, so
// parallelism only ever touches deterministic transforms — these tests pin
// that contract down with exact comparisons. The whole PaMO loop is pinned
// the same way by Determinism.SameSeedIsBitIdenticalAcrossThreadCounts.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "bo/acquisition.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/outcome_models.hpp"
#include "eva/profiler.hpp"
#include "la/matrix.hpp"

namespace pamo {
namespace {

/// Run `body` with a dedicated pool of `workers` installed as the default.
template <typename Fn>
auto with_pool(std::size_t workers, Fn&& body) {
  ThreadPool pool(workers);
  ThreadPool::ScopedDefault guard(pool);
  return body();
}

void expect_identical(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j))  // pamo-analyze: allow(float-eq)
          << "mismatch at (" << i << ", " << j << ")";
    }
  }
}

// ---- acquisition scores ---------------------------------------------------

la::Matrix random_samples(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  for (std::size_t s = 0; s < rows; ++s) {
    for (std::size_t c = 0; c < cols; ++c) m(s, c) = rng.normal();
  }
  return m;
}

TEST(ParallelEquivalence, AcquisitionScoresMatchAcrossThreadCounts) {
  const la::Matrix z_pool = random_samples(64, 200, 0xace00001ULL);
  const la::Matrix z_obs = random_samples(64, 5, 0xace00002ULL);
  for (auto type :
       {bo::AcquisitionType::kQNEI, bo::AcquisitionType::kQEI,
        bo::AcquisitionType::kQUCB, bo::AcquisitionType::kQSR}) {
    bo::AcquisitionOptions options;
    options.type = type;
    const auto serial = with_pool(1, [&] {
      return bo::acquisition_scores(options, z_pool, &z_obs, 0.25);
    });
    const auto parallel = with_pool(8, [&] {
      return bo::acquisition_scores(options, z_pool, &z_obs, 0.25);
    });
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
      EXPECT_EQ(serial[c], parallel[c])  // pamo-analyze: allow(float-eq)
          << acquisition_name(type) << " candidate " << c;
    }
  }
}

// ---- outcome-model fitting and sampling -----------------------------------

struct ModelRun {
  std::vector<la::Matrix> tables;
  la::Matrix means;
};

ModelRun run_outcome_models(std::size_t workers) {
  return with_pool(workers, [&] {
    eva::ConfigSpace space = eva::ConfigSpace::standard();
    eva::ClipLibrary library{5, 31};
    eva::Profiler profiler;
    gp::GpOptions gp;
    gp.mle_restarts = 1;
    gp.mle_max_evals = 60;
    core::OutcomeModels models(space, gp);

    Rng rng(0xace00003ULL);
    std::vector<eva::StreamConfig> configs;
    std::vector<eva::StreamMeasurement> ms;
    for (std::size_t i = 0; i < 80; ++i) {
      const auto& clip = library.clip(i % library.size());
      const eva::StreamConfig c = space.sample(rng);
      Rng mrng = rng.fork(i);
      configs.push_back(c);
      ms.push_back(profiler.measure(clip, c, mrng));
    }
    models.fit(configs, ms);

    // A follow-up batch exercises the parallel update path too.
    std::vector<eva::StreamConfig> more_configs(configs.begin(),
                                                configs.begin() + 10);
    std::vector<eva::StreamMeasurement> more_ms(ms.begin(), ms.begin() + 10);
    models.update(more_configs, more_ms);

    Rng sample_rng(0xace00004ULL);
    ModelRun run;
    run.tables = models.sample_grid_tables(12, sample_rng);
    run.means = models.mean_grid_table();
    return run;
  });
}

TEST(ParallelEquivalence, OutcomeModelTablesMatchAcrossThreadCounts) {
  const ModelRun serial = run_outcome_models(1);
  const ModelRun parallel = run_outcome_models(8);
  ASSERT_EQ(serial.tables.size(), parallel.tables.size());
  for (std::size_t m = 0; m < serial.tables.size(); ++m) {
    expect_identical(serial.tables[m], parallel.tables[m]);
  }
  expect_identical(serial.means, parallel.means);
}

}  // namespace
}  // namespace pamo
