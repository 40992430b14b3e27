// Concurrency stress tests for pamo::ThreadPool, written to run under
// ThreadSanitizer (the PAMO_SANITIZE=thread CI lane). The scenarios target
// the pool's historical failure mode — completion state owned by the
// waiter's stack frame being torn down while the last worker still touches
// it — plus concurrent submission from many client threads, rapid
// construction/destruction churn, and exception propagation under load.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace pamo {
namespace {

TEST(ThreadPoolStress, ManyClientThreadsShareOnePool) {
  ThreadPool pool(4);
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kItems = 64;

  std::vector<std::atomic<std::size_t>> totals(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &totals, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(kItems, [&sum](std::size_t i) {
          sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        totals[c].fetch_add(sum.load(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();

  constexpr std::size_t kPerRound = kItems * (kItems + 1) / 2;
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(totals[c].load(), kRounds * kPerRound);
  }
}

// The use-after-free scenario: the waiter must not unwind the completion
// state while the final worker task is still signalling it. Tiny batches
// maximise the window between the last decrement and the waiter's return;
// under TSan any touch of freed state is reported.
TEST(ThreadPoolStress, TinyBatchesBackToBackDoNotRace) {
  ThreadPool pool(4);
  for (std::size_t round = 0; round < 2000; ++round) {
    std::atomic<std::size_t> hits{0};
    pool.parallel_for(1, [&hits](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(hits.load(), 1u);
  }
}

TEST(ThreadPoolStress, ConstructionDestructionChurn) {
  for (std::size_t round = 0; round < 50; ++round) {
    ThreadPool pool(1 + round % 4);
    std::atomic<std::size_t> count{0};
    pool.parallel_for(16, [&count](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 16u);
    // Pool destroyed immediately after the batch — workers must drain and
    // join without touching anything the batch owned.
  }
}

TEST(ThreadPoolStress, ExceptionsPropagateWithoutLeakingTasks) {
  ThreadPool pool(4);
  for (std::size_t round = 0; round < 100; ++round) {
    EXPECT_THROW(
        pool.parallel_for(32,
                          [](std::size_t i) {
                            if (i == 7) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool must remain fully usable after a failed batch.
    std::atomic<std::size_t> ok{0};
    pool.parallel_for(8, [&ok](std::size_t) {
      ok.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ok.load(), 8u);
  }
}

// Every block throws, so every helper hands an exception to the batch
// while the caller may already be rethrowing the first one. The caller
// must own the exception it rethrows outright; under TSan, a worker
// releasing its reference after the hand-off is reported as a race.
TEST(ThreadPoolStress, EveryIndexThrowingRethrowsOncePerCall) {
  ThreadPool pool(4);
  for (std::size_t round = 0; round < 300; ++round) {
    std::size_t caught = 0;
    try {
      pool.parallel_for(64, [round](std::size_t i) {
        throw std::runtime_error("index " + std::to_string(i) + " of round " +
                                 std::to_string(round));
      });
    } catch (const std::runtime_error& e) {
      ++caught;
      EXPECT_NE(std::string(e.what()).find("of round"), std::string::npos);
    }
    ASSERT_EQ(caught, 1u) << "round " << round;
  }
  std::atomic<std::size_t> ok{0};
  pool.parallel_for(64, [&ok](std::size_t) {
    ok.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ok.load(), 64u);
}

TEST(ThreadPoolStress, ConcurrentThrowingAndCleanBatches) {
  ThreadPool pool(4);
  std::vector<std::thread> clients;
  std::atomic<std::size_t> caught{0};
  std::atomic<std::size_t> clean{0};
  for (std::size_t c = 0; c < 6; ++c) {
    clients.emplace_back([&pool, &caught, &clean, c] {
      for (std::size_t round = 0; round < 20; ++round) {
        if (c % 2 == 0) {
          try {
            pool.parallel_for(16, [](std::size_t i) {
              if (i % 5 == 0) throw std::runtime_error("noisy");
            });
          } catch (const std::runtime_error&) {
            caught.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          std::atomic<std::size_t> sum{0};
          pool.parallel_for(16, [&sum](std::size_t) {
            sum.fetch_add(1, std::memory_order_relaxed);
          });
          if (sum.load() == 16u) clean.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(caught.load(), 3u * 20u);
  EXPECT_EQ(clean.load(), 3u * 20u);
}

TEST(ThreadPoolStress, GlobalPoolConcurrentUse) {
  std::vector<std::thread> clients;
  std::vector<std::size_t> results(4, 0);
  for (std::size_t c = 0; c < results.size(); ++c) {
    clients.emplace_back([&results, c] {
      std::atomic<std::size_t> sum{0};
      parallel_for(128, [&sum](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
      results[c] = sum.load();
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t r : results) EXPECT_EQ(r, 128u * 127u / 2u);
}

// ---- dispatch-overhead regressions ----------------------------------------
// parallel_for used to enqueue tasks even for batches that could never use
// them (empty ranges, one block, more workers than items). These tests pin
// the short-circuit paths: no worker dispatch means the body runs on the
// calling thread.

TEST(ThreadPoolStress, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<std::size_t> calls{0};
  pool.parallel_for(0, [&calls](std::size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolStress, GrainCoveringWholeRangeRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<std::size_t> off_thread{0};
  std::atomic<std::size_t> calls{0};
  // grain >= n collapses the batch into one block, which must run on the
  // calling thread without waking any worker.
  pool.parallel_for(
      16,
      [&](std::size_t) {
        calls.fetch_add(1, std::memory_order_relaxed);
        if (std::this_thread::get_id() != caller) {
          off_thread.fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/16);
  EXPECT_EQ(calls.load(), 16u);
  EXPECT_EQ(off_thread.load(), 0u);
}

TEST(ThreadPoolStress, MoreWorkersThanItemsStillCoversEveryIndex) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> seen(3);
  pool.parallel_for(seen.size(), [&seen](std::size_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPoolStress, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  // Inner batches issued from worker threads must run inline — a worker
  // blocking on its own pool's queue would deadlock a 2-thread pool fast.
  pool.parallel_for(8, [&pool, &total](std::size_t) {
    pool.parallel_for(8, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPoolStress, ScopedDefaultRoutesFreeParallelFor) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  {
    ThreadPool::ScopedDefault guard(pool);
    EXPECT_EQ(&ThreadPool::current(), &pool);
    parallel_for(32, [&sum](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 32u * 31u / 2u);
  // After the guard unwinds, current() falls back to the global pool.
  EXPECT_NE(&ThreadPool::current(), &pool);
}

TEST(ThreadPoolStress, ScopedDefaultNestsAndRestores) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  ThreadPool::ScopedDefault outer_guard(outer);
  ASSERT_EQ(&ThreadPool::current(), &outer);
  {
    ThreadPool::ScopedDefault inner_guard(inner);
    EXPECT_EQ(&ThreadPool::current(), &inner);
  }
  EXPECT_EQ(&ThreadPool::current(), &outer);
}

TEST(ThreadPoolStress, DeterministicResultsAcrossThreadCounts) {
  auto compute = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(256, 0.0);
    pool.parallel_for(out.size(), [&out](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 0.25;
    });
    return out;
  };
  const auto one = compute(1);
  const auto four = compute(4);
  EXPECT_EQ(one, four);  // bit-for-bit: indices map to fixed outputs
}

}  // namespace
}  // namespace pamo
