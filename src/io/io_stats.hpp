// Disk I/O accounting.
//
// Every ReadOnlyStream / WriteOnlyStream charges its bytes to an IoStats
// instance. The pipeline snapshots the counters at phase boundaries to
// report per-phase disk traffic, and the modeled clock converts bytes to
// seconds with a configurable disk bandwidth (used when reproducing the
// paper's I/O-bound observations, Figs 8-10).
#pragma once

#include <atomic>
#include <cstdint>

namespace lasagna::io {

/// Monotonic byte/op counters for one storage domain (e.g. one node's disk).
class IoStats {
 public:
  void add_read(std::uint64_t bytes) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_write(std::uint64_t bytes) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    write_ops_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t read_ops() const {
    return read_ops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t write_ops() const {
    return write_ops_.load(std::memory_order_relaxed);
  }

  /// Immutable snapshot for phase-boundary diffs.
  struct Snapshot {
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
  };

  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{bytes_read(), bytes_written()};
  }

  /// Process-wide default instance (single-node pipeline).
  static IoStats& global();

 private:
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> read_ops_{0};
  std::atomic<std::uint64_t> write_ops_{0};
};

}  // namespace lasagna::io
