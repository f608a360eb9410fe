#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace lasagna::util {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : tasks_submitted_(registry().counter("pool.tasks_submitted")),
      tasks_completed_(registry().counter("pool.tasks_completed")),
      busy_ns_(registry().counter("pool.busy_ns")),
      queue_depth_(registry().gauge("pool.queue_depth")),
      queue_depth_peak_(registry().gauge("pool.queue_depth_peak")),
      utilization_(registry().gauge("pool.utilization_pct")),
      start_time_(std::chrono::steady_clock::now()) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
  update_utilization();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    depth = tasks_.size();
  }
  tasks_submitted_.add(1);
  queue_depth_.set(static_cast<std::int64_t>(depth));
  queue_depth_peak_.set_max(static_cast<std::int64_t>(depth));
  task_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
  lock.unlock();
  update_utilization();
}

void ThreadPool::update_utilization() {
  const auto elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
  const std::int64_t budget =
      elapsed_ns * static_cast<std::int64_t>(workers_.size());
  if (budget <= 0) return;
  utilization_.set(busy_ns_.value() * 100 / budget);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(count, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

void ThreadPool::parallel_for_chunked(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  // Shared with the helper tasks by ownership: a helper that starts after
  // the caller returned finds the cursor spent and never touches `body`.
  struct Region {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t count = 0;
    std::size_t step = 0;
    std::size_t ranges = 0;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;  // guarded by mutex
    std::exception_ptr first_error;  // guarded by mutex

    void run() {
      for (std::size_t r = next.fetch_add(1); r < ranges;
           r = next.fetch_add(1)) {
        std::exception_ptr error;
        try {
          (*body)(r * step, std::min(count, r * step + step));
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (error != nullptr && first_error == nullptr) first_error = error;
        if (++done == ranges) done_cv.notify_all();
      }
    }
  };
  auto region = std::make_shared<Region>();
  region->body = &body;
  region->count = count;
  const std::size_t target = std::min(count, size() * 4);
  region->step = (count + target - 1) / target;
  region->ranges = (count + region->step - 1) / region->step;

  const std::size_t helpers = std::min(region->ranges - 1, size());
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([region] { region->run(); });
  }
  region->run();
  {
    // Only ranges other threads already started are left: wait for them.
    std::unique_lock<std::mutex> lock(region->mutex);
    region->done_cv.wait(lock,
                         [&region] { return region->done == region->ranges; });
  }
  update_utilization();
  // Rethrow the first failure in the caller, once every range is done.
  if (region->first_error != nullptr) {
    std::rethrow_exception(region->first_error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    std::size_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      depth = tasks_.size();
      ++active_;
    }
    queue_depth_.set(static_cast<std::int64_t>(depth));
    const auto task_start = std::chrono::steady_clock::now();
    task();
    busy_ns_.add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - task_start)
                     .count());
    tasks_completed_.add(1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (tasks_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace lasagna::util
