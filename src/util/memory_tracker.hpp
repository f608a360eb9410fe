// Logical memory accounting with high-water marks.
//
// The paper reports peak host and device memory per phase (Tables IV and V).
// Rather than sampling RSS (meaningless for scaled-down runs), every buffer
// the pipeline considers "host working memory" or "device memory" registers
// its bytes with a tracker, which maintains current usage and a peak that can
// be snapshotted per phase.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace lasagna::util {

/// Thread-safe current/peak byte counter with an optional hard capacity.
class MemoryTracker {
 public:
  /// `capacity` = 0 means unlimited (host); nonzero enforces a budget and
  /// `allocate` throws `std::bad_alloc`-like `CapacityError` beyond it.
  explicit MemoryTracker(std::string name, std::uint64_t capacity = 0)
      : name_(std::move(name)), capacity_(capacity) {}

  struct CapacityError : std::runtime_error {
    using std::runtime_error::runtime_error;
  };

  /// Register `bytes` of usage. Throws CapacityError if a budget is set and
  /// would be exceeded (usage is left unchanged in that case).
  void allocate(std::uint64_t bytes);

  /// Release `bytes` of usage (must not exceed current usage).
  void release(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t current() const {
    return current_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Reset the peak to the current usage (called at phase boundaries).
  void reset_peak() {
    peak_.store(current(), std::memory_order_relaxed);
    publish();
  }

  /// Mirror this tracker into the global metrics registry as the gauges
  /// `<prefix>.current_bytes` / `<prefix>.peak_bytes`, updated on every
  /// allocate/release from now on. Lets tests and --metrics-out observe
  /// budgets without reaching into the tracker. The peak gauge is the high-
  /// water mark since this call: reset_peak() restarts peak() per phase but
  /// never lowers the gauge.
  void publish_metrics(const std::string& prefix);

 private:
  void publish();

  std::string name_;
  std::uint64_t capacity_;
  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> peak_{0};
  // Set once by publish_metrics (gauge addresses are stable in the global
  // registry); nullptr = unpublished, the only cost being a branch.
  obs::Gauge* current_gauge_ = nullptr;
  obs::Gauge* peak_gauge_ = nullptr;
};

/// RAII registration of a block of logical memory against a tracker.
class TrackedAllocation {
 public:
  TrackedAllocation() = default;
  TrackedAllocation(MemoryTracker& tracker, std::uint64_t bytes)
      : tracker_(&tracker), bytes_(bytes) {
    tracker_->allocate(bytes_);
  }
  ~TrackedAllocation() { reset(); }

  TrackedAllocation(const TrackedAllocation&) = delete;
  TrackedAllocation& operator=(const TrackedAllocation&) = delete;
  TrackedAllocation(TrackedAllocation&& other) noexcept
      : tracker_(other.tracker_), bytes_(other.bytes_) {
    other.tracker_ = nullptr;
    other.bytes_ = 0;
  }
  TrackedAllocation& operator=(TrackedAllocation&& other) noexcept {
    if (this != &other) {
      reset();
      tracker_ = other.tracker_;
      bytes_ = other.bytes_;
      other.tracker_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }

  void reset() {
    if (tracker_ != nullptr) tracker_->release(bytes_);
    tracker_ = nullptr;
    bytes_ = 0;
  }

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  MemoryTracker* tracker_ = nullptr;
  std::uint64_t bytes_ = 0;
};

}  // namespace lasagna::util
