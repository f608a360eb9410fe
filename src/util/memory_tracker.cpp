#include "util/memory_tracker.hpp"

#include "util/timer.hpp"

namespace lasagna::util {

void MemoryTracker::allocate(std::uint64_t bytes) {
  std::uint64_t prev = current_.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t next = prev + bytes;
    if (capacity_ != 0 && next > capacity_) {
      throw CapacityError(name_ + ": allocation of " + format_bytes(bytes) +
                          " exceeds capacity " + format_bytes(capacity_) +
                          " (in use: " + format_bytes(prev) + ")");
    }
    if (current_.compare_exchange_weak(prev, next,
                                       std::memory_order_relaxed)) {
      // Advance the peak monotonically.
      std::uint64_t seen = peak_.load(std::memory_order_relaxed);
      while (seen < next &&
             !peak_.compare_exchange_weak(seen, next,
                                          std::memory_order_relaxed)) {
      }
      publish();
      return;
    }
  }
}

void MemoryTracker::release(std::uint64_t bytes) {
  const std::uint64_t prev =
      current_.fetch_sub(bytes, std::memory_order_relaxed);
  if (prev < bytes) {
    current_.store(0, std::memory_order_relaxed);
    throw std::logic_error(name_ + ": release of more bytes than allocated");
  }
  publish();
}

void MemoryTracker::publish_metrics(const std::string& prefix) {
  auto& registry = obs::MetricsRegistry::global();
  current_gauge_ = &registry.gauge(prefix + ".current_bytes");
  peak_gauge_ = &registry.gauge(prefix + ".peak_bytes");
  peak_gauge_->set(static_cast<std::int64_t>(peak()));
  publish();
}

void MemoryTracker::publish() {
  if (current_gauge_ == nullptr) return;
  current_gauge_->set(static_cast<std::int64_t>(current()));
  peak_gauge_->set_max(static_cast<std::int64_t>(peak()));
}

}  // namespace lasagna::util
