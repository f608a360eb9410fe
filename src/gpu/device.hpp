// The simulated CUDA device: a memory budget and a modeled clock driven by
// the GpuProfile cost model. It holds no data and runs no code: kernels
// compute on the host, in place, and charge their modeled cost to a stream.
//
// The modeled clock is organized as CUDA-style streams: every charge names
// the stream it lands on (gpu::Stream, gpu/stream.hpp), and the device-time
// consumed so far is the max over stream completion times. Code that
// charges only the default stream sums every charge: its timeline is
// exactly the legacy summed clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>

#include "gpu/profile.hpp"
#include "io/fault_injector.hpp"
#include "util/memory_tracker.hpp"

namespace lasagna::gpu {

/// Identifies one modeled execution stream on a device (cf. cudaStream_t).
/// Stream 0 is the default stream, which synchronous callers charge.
using StreamId = std::uint32_t;

/// A point on a stream's modeled timeline (cf. cudaEvent_t): recording
/// captures the issuing stream's completion time, and another stream that
/// waits on the event cannot complete earlier than that time.
struct Event {
  std::uint64_t ready_ps = 0;  ///< modeled time (picoseconds) when ready
};

class Device {
 public:
  /// `capacity_bytes` overrides the profile's memory size (scaled runs);
  /// 0 keeps the profile capacity.
  explicit Device(const GpuProfile& profile = GpuProfile::k40(),
                  std::uint64_t capacity_bytes = 0);

  [[nodiscard]] const GpuProfile& profile() const { return profile_; }
  [[nodiscard]] util::MemoryTracker& memory() { return memory_; }
  [[nodiscard]] const util::MemoryTracker& memory() const { return memory_; }

  /// Reserve device memory for `count` elements of T until the returned
  /// allocation is reset or destroyed. It holds no bytes: the device is a
  /// budget, so any algorithm that would not fit on the real GPU throws
  /// util::MemoryTracker::CapacityError exactly where cudaMalloc would have
  /// failed, and io::FaultError when an installed injector fails it.
  template <typename T>
  [[nodiscard]] util::TrackedAllocation alloc(std::size_t count) {
    if (io::FaultInjector* injector = io::FaultInjector::active()) {
      injector->on_alloc(count * sizeof(T));
    }
    note_alloc(count * sizeof(T));
    return util::TrackedAllocation(memory_, count * sizeof(T));
  }

  // -- modeled clock -------------------------------------------------------

  static constexpr StreamId kDefaultStream = 0;

  /// Create a new modeled stream. The stream joins the device timeline at
  /// the current frontier (max over existing streams): work issued to it may
  /// overlap anything issued later, but cannot predate the stream's creation
  /// — which keeps sequential phases that each create fresh streams additive.
  [[nodiscard]] StreamId create_stream();

  /// Number of streams created so far (including the default stream).
  [[nodiscard]] std::size_t stream_count() const;

  /// Charge a kernel's modeled cost (bytes moved through device memory and
  /// arithmetic/compare operations executed) to `stream`. Callers go
  /// through gpu::Stream; an unknown id throws std::logic_error.
  void charge_kernel_on(StreamId stream, std::uint64_t bytes_moved,
                        std::uint64_t operations);

  /// Charge a host<->device transfer's modeled cost to `stream`.
  void charge_transfer_on(StreamId stream, std::uint64_t bytes);

  /// Count one kernel launch in `gpu.launches`. Kernels run on the host, so
  /// this is bookkeeping only: the kernel's cost is its stream's charge.
  void note_launch();

  /// Capture `stream`'s current completion time.
  [[nodiscard]] Event record_event(StreamId stream) const;

  /// Make `stream` wait for `event`: its timeline cannot complete before
  /// the event's ready time.
  void wait_event(StreamId stream, const Event& event);

  /// Modeled device-time consumed so far: the max over stream completion
  /// times. With only the default stream in use this is the plain sum of
  /// every charge (the legacy synchronous clock).
  [[nodiscard]] double modeled_seconds() const;

  /// Completion time of one stream, in seconds.
  [[nodiscard]] double stream_seconds(StreamId stream) const;

 private:
  /// Stable reference to a stream's picosecond counter (bounds-checked).
  std::atomic<std::uint64_t>& stream_clock(StreamId stream) const;

  /// Metrics/trace hook for alloc<T> (non-template so it lives in the .cpp).
  void note_alloc(std::uint64_t bytes);

  GpuProfile profile_;
  util::MemoryTracker memory_;
  /// One completion-time counter per stream; deque keeps references stable
  /// while create_stream appends. Guarded by streams_mutex_ for growth and
  /// indexing; the counters themselves are atomics so concurrent charges to
  /// different streams need no lock.
  mutable std::mutex streams_mutex_;
  mutable std::deque<std::atomic<std::uint64_t>> stream_ps_;
};

}  // namespace lasagna::gpu
