// Streaming window over a sorted FpRecord file, with carry-over support for
// the window-equalized merge/match loops (Algorithms 1 and 2). Shared by the
// sort phase (disk-level merge) and the reduce phase (suffix/prefix match);
// the reader prefetches on a background thread when given a queue depth
// and reads synchronously at depth 0, delivering the same records either
// way.
//
// consume() only advances a cursor; the dead prefix is dropped lazily in
// fill() once it spans at least one window, so advancing by n records costs
// amortized O(n) instead of a front-erase memmove per window.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "io/async_record_stream.hpp"

namespace lasagna::core {

class FileWindow {
 public:
  /// Reads `path` in blocks of `block_records` with up to `prefetch_blocks`
  /// queued ahead (0: synchronous reads of exactly what fill() needs).
  FileWindow(std::size_t window_records, const std::filesystem::path& path,
             io::IoStats& stats, std::size_t block_records,
             std::size_t prefetch_blocks)
      : reader_(path, stats, block_records, prefetch_blocks),
        window_(window_records) {}

  /// Top up the buffer to the window size; returns false when no data
  /// remains at all.
  bool fill() {
    if (head_ >= window_ || head_ >= buffer_.size()) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(head_, buffer_.size())));
      head_ = 0;
    }
    const std::size_t live = buffer_.size() - head_;
    if (live < window_ && !reader_.eof()) {
      reader_.read(buffer_, window_ - live);
    }
    return head_ < buffer_.size();
  }

  [[nodiscard]] std::span<const FpRecord> view() const {
    return std::span<const FpRecord>(buffer_).subspan(
        head_, std::min(window_, buffer_.size() - head_));
  }

  void consume(std::size_t n) { head_ += n; }

  /// True once the underlying reader has observed end of file (the live
  /// window may still hold records).
  [[nodiscard]] bool stream_done() const { return reader_.eof(); }

  /// Pull records while their fingerprint equals `fp` (window-overflow
  /// fallback for pathological duplicate runs). O(1) amortized per record:
  /// only the cursor advances, and refills recycle the buffer in place.
  void append_run(const gpu::Key128& fp, std::vector<FpRecord>& out) {
    for (;;) {
      while (head_ < buffer_.size() && buffer_[head_].fp == fp) {
        out.push_back(buffer_[head_]);
        ++head_;
      }
      if (head_ < buffer_.size() || reader_.eof()) return;
      buffer_.clear();
      head_ = 0;
      reader_.read(buffer_, window_);
      if (buffer_.empty()) return;
    }
  }

 private:
  io::AsyncRecordReader<FpRecord> reader_;
  std::size_t window_;
  std::vector<FpRecord> buffer_;
  std::size_t head_ = 0;
};

}  // namespace lasagna::core
