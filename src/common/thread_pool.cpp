#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace pamo {

namespace {

// Set for the lifetime of every pool worker thread: a parallel_for issued
// from inside a worker must run inline, because parking that worker to wait
// on blocks only other (possibly equally-parked) workers can run would
// deadlock the pool.
thread_local bool t_inside_worker = false;

// Innermost ScopedDefault override; free parallel_for() falls back to the
// global pool when none is active. Overrides are process-wide: installing
// or removing one while other threads are inside free parallel_for() calls
// is the caller's race to avoid.
std::atomic<ThreadPool*> g_default_pool{nullptr};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_inside_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) grain = 1;

  // `grain` alone sets the block size: blocks of `grain` indices, the last
  // one possibly short.
  const std::size_t num_blocks = (n + grain - 1) / grain;

  // Inline paths: single-worker pools, batches not worth a dispatch, and
  // calls from inside a worker (see t_inside_worker).
  if (size() <= 1 || num_blocks <= 1 || t_inside_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Completion state is owned jointly by the waiter and every task (via
  // shared_ptr), not borrowed from the waiter's stack: the waiter may
  // observe blocks_finished == num_blocks and return while a late-starting
  // task is still between its failed claim and its own return, so
  // stack-owned state would be destroyed under that task's feet. `fn` is
  // captured by reference, which is safe for the same reason: a task that
  // outlives the waiter can no longer claim a block and never touches fn.
  struct Batch {
    std::atomic<std::size_t> next_block{0};
    std::atomic<bool> aborted{false};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t blocks_finished = 0;  // guarded by mutex
    std::size_t num_blocks = 0;
    std::exception_ptr first_error;  // guarded by mutex
  };
  auto batch = std::make_shared<Batch>();
  batch->num_blocks = num_blocks;

  // Every participant — helpers and the caller — claims blocks from the
  // shared counter until none remain. Block boundaries depend only on
  // (n, grain), never on which thread claims what, so the set
  // of fn(i) calls is identical at any thread count.
  auto run_blocks = [batch, &fn, n, grain] {
    for (;;) {
      const std::size_t b =
          batch->next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= batch->num_blocks) return;
      std::exception_ptr error;
      if (!batch->aborted.load(std::memory_order_relaxed)) {
        try {
          const std::size_t begin = b * grain;
          const std::size_t end = std::min(n, begin + grain);
          for (std::size_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> block_lock(batch->mutex);
      if (error) {
        // Hand the exception over, or drop it, under the lock: a reference
        // released after the unlock could race the caller's rethrow.
        if (!batch->first_error) batch->first_error = std::move(error);
        error = nullptr;
        batch->aborted.store(true, std::memory_order_relaxed);
      }
      if (++batch->blocks_finished == batch->num_blocks) {
        batch->done.notify_all();
      }
    }
  };

  // Enough helpers that every worker can pitch in, but never more tasks
  // than blocks beyond the caller's own share.
  const std::size_t helpers = std::min(size(), num_blocks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) tasks_.emplace(run_blocks);
  }
  cv_.notify_all();

  run_blocks();

  // Take the exception out of the batch under its lock: a helper's task may
  // still own the batch, and must not release the exception when it drops it.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(
        lock, [&] { return batch->blocks_finished == batch->num_blocks; });
    error = std::exchange(batch->first_error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool& ThreadPool::current() {
  ThreadPool* pool = g_default_pool.load(std::memory_order_acquire);
  return pool != nullptr ? *pool : global();
}

ThreadPool::ScopedDefault::ScopedDefault(ThreadPool& pool)
    : previous_(g_default_pool.exchange(&pool, std::memory_order_acq_rel)) {}

ThreadPool::ScopedDefault::~ScopedDefault() {
  g_default_pool.store(previous_, std::memory_order_release);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  ThreadPool::current().parallel_for(n, fn, grain);
}

}  // namespace pamo
