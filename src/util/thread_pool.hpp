// Fixed-size worker pool with a blocking parallel_for whose caller works
// alongside the workers; used by the simulated GPU to execute thread-blocks
// and by the pipeline's data-parallel host loops.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace lasagna::util {

/// A fixed pool of worker threads executing queued tasks.
///
/// Tasks must not throw; exceptions escaping a task terminate the process
/// (matching the CUDA model where a faulting kernel kills the context).
/// Use `parallel_for` for bulk data-parallel work.
class ThreadPool {
 public:
  /// Create a pool with `threads` workers (0 -> hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished.
  void wait_idle();

  /// Run `body(i)` for every i in [0, count), split into `size()`-ish chunks,
  /// and block until all iterations complete. `body` must be thread-safe.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// Run `body(begin, end)` over contiguous index ranges covering [0, count)
  /// and block until all ranges complete; the first exception a range
  /// throws is rethrown here once every range has run. Lower overhead than
  /// per-index dispatch for tight loops.
  ///
  /// The caller takes ranges from the same cursor as at most
  /// min(ranges - 1, size()) helper tasks, so it never sleeps while ranges
  /// wait in a busy queue, and a call made from inside a pool task (or a
  /// `body`) cannot deadlock. `body` may therefore run on the caller's
  /// thread or on a worker: it must not read thread-local state such as the
  /// fault injector's ScopedNode. Ends by refreshing pool.utilization_pct.
  void parallel_for_chunked(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();
  /// Recompute the pool.utilization_pct gauge: pool.busy_ns over wall time
  /// across all workers since construction. Busy time counts the tasks the
  /// workers ran (parallel_for's helpers included), not the share of a
  /// parallel_for that its caller ran itself.
  void update_utilization();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;

  // Cached global-registry metrics (stable addresses, relaxed atomics):
  // pool.tasks_submitted/completed, pool.busy_ns (summed task latency),
  // pool.queue_depth (+ high-water), pool.utilization_pct.
  obs::Counter& tasks_submitted_;
  obs::Counter& tasks_completed_;
  obs::Counter& busy_ns_;
  obs::Gauge& queue_depth_;
  obs::Gauge& queue_depth_peak_;
  obs::Gauge& utilization_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace lasagna::util
