#include "gpu/device.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lasagna::gpu {

namespace {

struct GpuCounters {
  obs::Counter& kernel_charges;
  obs::Counter& kernel_bytes;
  obs::Counter& kernel_ops;
  obs::Counter& transfer_charges;
  obs::Counter& transfer_bytes;
  obs::Counter& launches;
  obs::Counter& allocs;
  obs::Counter& alloc_bytes;
};

GpuCounters& gpu_counters() {
  auto& r = obs::MetricsRegistry::global();
  static GpuCounters counters{
      r.counter("gpu.kernel_charges"), r.counter("gpu.kernel_bytes"),
      r.counter("gpu.kernel_ops"),     r.counter("gpu.transfer_charges"),
      r.counter("gpu.transfer_bytes"), r.counter("gpu.launches"),
      r.counter("gpu.allocs"),         r.counter("gpu.alloc_bytes")};
  return counters;
}

/// Modeled-only span for one charge on one stream's timeline. The start is
/// the fetch_add's prior value, so per-stream spans tile the stream's clock
/// exactly and are deterministic (each stream is fed from one issue order).
void trace_charge(obs::Tracer& tracer, StreamId stream, const char* what,
                  std::uint64_t start_ps, std::uint64_t dur_ps,
                  std::vector<obs::TraceArg> args) {
  tracer.add_span(tracer.track("device.s" + std::to_string(stream)), what,
                  /*wall_start_ns=*/-1, /*wall_dur_ns=*/0,
                  static_cast<std::int64_t>(start_ps),
                  static_cast<std::int64_t>(dur_ps), std::move(args));
}

}  // namespace

Device::Device(const GpuProfile& profile, std::uint64_t capacity_bytes)
    : profile_(profile),
      memory_("device[" + profile.name + "]",
              capacity_bytes == 0 ? profile.memory_bytes : capacity_bytes) {
  stream_ps_.emplace_back(0);  // the default stream
  memory_.publish_metrics("gpu.device");
}

StreamId Device::create_stream() {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  std::uint64_t frontier = 0;
  for (const auto& ps : stream_ps_) {
    frontier = std::max(frontier, ps.load(std::memory_order_relaxed));
  }
  stream_ps_.emplace_back(frontier);
  return static_cast<StreamId>(stream_ps_.size() - 1);
}

std::size_t Device::stream_count() const {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  return stream_ps_.size();
}

std::atomic<std::uint64_t>& Device::stream_clock(StreamId stream) const {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  if (stream >= stream_ps_.size()) {
    throw std::logic_error("unknown stream id " + std::to_string(stream));
  }
  return stream_ps_[stream];
}

void Device::charge_kernel_on(StreamId stream, std::uint64_t bytes_moved,
                              std::uint64_t operations) {
  const double seconds = profile_.kernel_seconds(bytes_moved, operations);
  const auto dur_ps =
      static_cast<std::uint64_t>(std::llround(seconds * 1e12));
  const std::uint64_t start_ps =
      stream_clock(stream).fetch_add(dur_ps, std::memory_order_relaxed);
  gpu_counters().kernel_charges.add(1);
  gpu_counters().kernel_bytes.add(static_cast<std::int64_t>(bytes_moved));
  gpu_counters().kernel_ops.add(static_cast<std::int64_t>(operations));
  if (obs::Tracer* tracer = obs::Tracer::active()) {
    trace_charge(*tracer, stream, "kernel", start_ps, dur_ps,
                 {{"bytes", static_cast<std::int64_t>(bytes_moved)},
                  {"ops", static_cast<std::int64_t>(operations)}});
  }
}

void Device::charge_transfer_on(StreamId stream, std::uint64_t bytes) {
  const double seconds = profile_.transfer_seconds(bytes);
  const auto dur_ps =
      static_cast<std::uint64_t>(std::llround(seconds * 1e12));
  const std::uint64_t start_ps =
      stream_clock(stream).fetch_add(dur_ps, std::memory_order_relaxed);
  gpu_counters().transfer_charges.add(1);
  gpu_counters().transfer_bytes.add(static_cast<std::int64_t>(bytes));
  if (obs::Tracer* tracer = obs::Tracer::active()) {
    trace_charge(*tracer, stream, "transfer", start_ps, dur_ps,
                 {{"bytes", static_cast<std::int64_t>(bytes)}});
  }
}

void Device::note_launch() { gpu_counters().launches.add(1); }

void Device::note_alloc(std::uint64_t bytes) {
  gpu_counters().allocs.add(1);
  gpu_counters().alloc_bytes.add(static_cast<std::int64_t>(bytes));
}

Event Device::record_event(StreamId stream) const {
  return Event{stream_clock(stream).load(std::memory_order_relaxed)};
}

void Device::wait_event(StreamId stream, const Event& event) {
  auto& clock = stream_clock(stream);
  std::uint64_t current = clock.load(std::memory_order_relaxed);
  while (current < event.ready_ps &&
         !clock.compare_exchange_weak(current, event.ready_ps,
                                      std::memory_order_relaxed)) {
  }
}

double Device::modeled_seconds() const {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  std::uint64_t frontier = 0;
  for (const auto& ps : stream_ps_) {
    frontier = std::max(frontier, ps.load(std::memory_order_relaxed));
  }
  return static_cast<double>(frontier) * 1e-12;
}

double Device::stream_seconds(StreamId stream) const {
  return static_cast<double>(
             stream_clock(stream).load(std::memory_order_relaxed)) *
         1e-12;
}

}  // namespace lasagna::gpu
