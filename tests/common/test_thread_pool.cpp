#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pamo {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  pool.parallel_for(10, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 57) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, SurvivesExceptionAndKeepsWorking) {
  ThreadPool pool(3);
  try {
    pool.parallel_for(10, [](std::size_t) { throw Error("x"); });
  } catch (const Error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  // Per-index forked RNG streams must give identical results under any
  // degree of parallelism — the determinism contract of the codebase.
  auto compute = [](std::size_t threads) {
    ThreadPool pool(threads);
    Rng base(99);
    std::vector<double> out(64, 0.0);
    pool.parallel_for(64, [&](std::size_t i) {
      Rng stream = base.fork(i);
      double sum = 0.0;
      for (int k = 0; k < 100; ++k) sum += stream.uniform();
      out[i] = sum;
    });
    return out;
  };
  EXPECT_EQ(compute(1), compute(4));
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> count{0};
  parallel_for(128, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 128);
}

TEST(ThreadPool, ManySmallBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(3, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 3);
  }
}

TEST(ThreadPool, GrainOneGivesEveryIndexItsOwnBlock) {
  // The fleet fans out its 84 shards at grain 1. Index 0 waits until index
  // 1 has run: that finishes only when index 1 is a block of its own, so
  // another participant can take it while index 0 waits.
  for (const std::size_t workers : {2U, 8U}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> counts(84);
    std::mutex mutex;
    std::condition_variable ran;
    bool second_ran = false;
    bool first_saw_second = false;
    pool.parallel_for(
        84,
        [&](std::size_t i) {
          if (i == 1) {
            const std::lock_guard<std::mutex> lock(mutex);
            second_ran = true;
            ran.notify_all();
          }
          if (i == 0) {
            std::unique_lock<std::mutex> lock(mutex);
            first_saw_second = ran.wait_for(lock, std::chrono::seconds(30),
                                            [&] { return second_ran; });
          }
          ++counts[i];
        },
        /*grain=*/1);
    EXPECT_TRUE(first_saw_second);
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

}  // namespace
}  // namespace pamo
