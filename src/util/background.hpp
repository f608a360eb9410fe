// Background stages: the one bounded producer/consumer hand-off behind every
// streamed phase (the paper's semi-streaming pipeline, Fig 8: prefetch
// block i+1, work on block i, write block i-1).
//
// Prefetch<T> runs a producer on a private thread up to `depth` items ahead
// of next(); Drain<T> runs a consumer on a private thread up to `depth`
// items behind submit(). The item the background thread is working on does
// not count against the depth. Both keep item order and hand a background
// failure to the caller: next() rethrows the producer's exception after
// every item produced before it, and the next submit() or finish() rethrows
// the consumer's. Destruction stops the thread and abandons queued work.
//
// Depth 0 starts no thread: next() calls the producer and submit() calls
// the consumer on the caller's thread, so a synchronous path runs the same
// loop body as its streamed twin.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

namespace lasagna::util {

/// Queue depth without a bound: submit() never blocks.
inline constexpr std::size_t kUnboundedDepth =
    std::numeric_limits<std::size_t>::max();

template <class T>
class Prefetch {
 public:
  /// `produce(item)` fills `item` and returns true, or returns false at the
  /// end of the stream. On the prefetch thread `item` is value-initialized;
  /// at depth 0 it is the caller's `out`.
  Prefetch(std::function<bool(T&)> produce, std::size_t depth)
      : produce_(std::move(produce)), depth_(depth) {
    if (depth_ > 0) worker_ = std::thread([this] { run(); });
  }

  ~Prefetch() {
    if (!worker_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  Prefetch(const Prefetch&) = delete;
  Prefetch& operator=(const Prefetch&) = delete;

  /// Move the next item into `out`; false once the stream has ended. At
  /// depth 0 this is `produce(out)` itself.
  bool next(T& out) {
    if (depth_ == 0) return produce_(out);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !queue_.empty() || done_; });
    if (queue_.empty()) {
      if (error_ != nullptr) std::rethrow_exception(error_);
      return false;
    }
    out = std::move(queue_.front());
    queue_.pop_front();
    cv_.notify_all();  // a queue slot freed for the producer
    return true;
  }

 private:
  void run() {
    std::exception_ptr error;
    try {
      for (;;) {
        T item{};
        if (!produce_(item)) break;
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return queue_.size() < depth_ || stop_; });
        if (stop_) return;
        queue_.push_back(std::move(item));
        cv_.notify_all();
      }
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    error_ = error;
    done_ = true;
    cv_.notify_all();
  }

  std::function<bool(T&)> produce_;
  std::size_t depth_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> queue_;
  bool done_ = false;
  bool stop_ = false;
  std::exception_ptr error_;

  std::thread worker_;
};

template <class T>
class Drain {
 public:
  /// `consume(item)` sees every submitted item once, in submission order.
  Drain(std::function<void(T&)> consume, std::size_t depth)
      : consume_(std::move(consume)), depth_(depth) {
    if (depth_ > 0) worker_ = std::thread([this] { run(); });
  }

  ~Drain() {
    if (!worker_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  Drain(const Drain&) = delete;
  Drain& operator=(const Drain&) = delete;

  /// Queue `item`, blocking while `depth` items wait; rethrows an earlier
  /// consumer failure. Safe to call from several threads (at depth 0 the
  /// callers take turns running the consumer).
  void submit(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (depth_ == 0) {
      consume_(item);
      return;
    }
    cv_.wait(lock, [this] {
      return queue_.size() < depth_ || error_ != nullptr;
    });
    if (error_ != nullptr) std::rethrow_exception(error_);
    queue_.push_back(std::move(item));
    cv_.notify_all();
  }

  /// Wait until every submitted item is consumed, then stop the thread.
  /// Rethrows a consumer failure. Call after the last submit().
  void finish() {
    if (worker_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        finishing_ = true;
      }
      cv_.notify_all();
      worker_.join();
    }
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock,
               [this] { return !queue_.empty() || finishing_ || stop_; });
      if (stop_ || queue_.empty()) return;
      T item = std::move(queue_.front());
      queue_.pop_front();
      cv_.notify_all();  // a queue slot freed for the submitters
      lock.unlock();
      try {
        consume_(item);
      } catch (...) {
        lock.lock();
        error_ = std::current_exception();
        queue_.clear();
        cv_.notify_all();
        return;
      }
      lock.lock();
    }
  }

  std::function<void(T&)> consume_;
  std::size_t depth_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> queue_;
  bool finishing_ = false;
  bool stop_ = false;
  std::exception_ptr error_;

  std::thread worker_;
};

}  // namespace lasagna::util
