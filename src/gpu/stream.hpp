// CUDA-style stream handles over the Device's per-stream modeled timelines.
//
// A Stream is a lightweight (device, id) handle, passed by value. Every
// modeled charge names the stream it lands on: charges issued through a
// Stream accumulate on that stream's timeline only, and
// Device::modeled_seconds() is the max over stream completion times, so
// work charged to different streams is modeled as overlapped unless an
// Event orders it.
//
// A transfer is charged by its byte count: the device holds no data, so
// nothing is copied, and the caller's kernel computes on the host arrays.
#pragma once

#include "gpu/device.hpp"

namespace lasagna::gpu {

class Stream {
 public:
  Stream(Device& device, StreamId id) : device_(&device), id_(id) {}

  [[nodiscard]] StreamId id() const { return id_; }

  /// The device this stream runs on (its allocator).
  [[nodiscard]] Device& device() const { return *device_; }

  /// Charge a kernel's modeled cost to this stream.
  void charge_kernel(std::uint64_t bytes_moved,
                     std::uint64_t operations) const {
    device_->charge_kernel_on(id_, bytes_moved, operations);
  }

  /// Charge a transfer's modeled cost to this stream.
  void charge_transfer(std::uint64_t bytes) const {
    device_->charge_transfer_on(id_, bytes);
  }

  /// Capture this stream's current completion time.
  [[nodiscard]] Event record() const { return device_->record_event(id_); }

  /// Serialize after `event`: this stream cannot complete before it.
  void wait(const Event& event) const { device_->wait_event(id_, event); }

  /// This stream's completion time, in seconds.
  [[nodiscard]] double seconds() const {
    return device_->stream_seconds(id_);
  }

 private:
  Device* device_;
  StreamId id_;
};

/// The device's default stream (the legacy summed timeline).
inline Stream default_stream(Device& device) {
  return Stream(device, Device::kDefaultStream);
}

/// A fresh stream joining the timeline at the device's current frontier.
inline Stream create_stream(Device& device) {
  return Stream(device, device.create_stream());
}

/// The two modeled streams a double-buffered phase alternates device work
/// across (chunk/batch/window i runs on leg i % 2). In synchronous mode both
/// legs alias the default stream, so every charge sums onto the legacy
/// timeline and modeled values are unchanged.
class StreamPair {
 public:
  StreamPair(Device& device, bool dual)
      : legs_{dual ? create_stream(device) : default_stream(device),
              dual ? create_stream(device) : default_stream(device)} {}

  /// One device call on the next leg: `upload(leg)` issues the H2D copies;
  /// `kernel(leg)` runs after the last kernel issued on either leg (the
  /// device has one compute engine, so kernels serialize across streams
  /// while transfers overlap them); `download(leg)` issues the D2H copies.
  template <typename Upload, typename Kernel, typename Download>
  void round_trip(Upload&& upload, Kernel&& kernel, Download&& download) {
    const Stream leg = legs_[next_];
    next_ ^= 1u;
    upload(leg);
    leg.wait(last_kernel_);
    kernel(leg);
    last_kernel_ = leg.record();
    download(leg);
  }

 private:
  Stream legs_[2];
  unsigned next_ = 0;
  Event last_kernel_;
};

}  // namespace lasagna::gpu
