// Sequential binary file streams — the concrete form of the paper's
// "read-only memory" and "write-only memory" (Fig 3): files may be read
// or written strictly sequentially, never both at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>

#include "io/io_stats.hpp"

namespace lasagna::obs {
class Tracer;
}  // namespace lasagna::obs

namespace lasagna::io {

namespace detail {
struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

/// The one dual-clock span a stream records on its disk row, named by the
/// filename (workspace temp dirs differ between runs, filenames do not).
/// The first traced operation opens it and every later one extends it; it
/// is recorded when the stream closes or is destroyed. Wall time runs from
/// the first operation's start to the last one's end; modeled time covers
/// the first to the final byte offset at the tracer's disk bandwidth.
class DiskSpan {
 public:
  explicit DiskSpan(const char* track) : track_(track) {}
  DiskSpan(const DiskSpan&) = delete;
  DiskSpan& operator=(const DiskSpan&) = delete;
  ~DiskSpan() { finish(); }

  /// Extend the span by one operation that moved the stream from
  /// `offset_before` to `offset_after`, started at `wall_start_ns`.
  void add(obs::Tracer& tracer, const std::filesystem::path& path,
           std::uint64_t offset_before, std::uint64_t offset_after,
           std::int64_t wall_start_ns);

  /// Record the span (idempotent). Dropped if its tracer is no longer the
  /// installed one.
  void finish();

 private:
  const char* track_ = "";
  obs::Tracer* tracer_ = nullptr;
  std::string name_;
  std::int64_t wall_start_ns_ = 0;
  std::int64_t wall_end_ns_ = 0;
  std::uint64_t first_offset_ = 0;
  std::uint64_t last_offset_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t ops_ = 0;
};
}  // namespace detail

/// Sequentially readable binary file. All reads are charged to `stats`.
class ReadOnlyStream {
 public:
  /// Open `path` for reading; throws std::system_error on failure.
  explicit ReadOnlyStream(const std::filesystem::path& path,
                          IoStats& stats = IoStats::global());

  /// Read up to `out.size()` bytes; returns the number actually read
  /// (less than requested only at end of file).
  std::size_t read_bytes(std::span<std::byte> out);

  /// Seek forward past `bytes` without reading them. Skipped bytes are not
  /// charged to `stats` — resume paths use this to avoid re-paying for data
  /// that a completed run already consumed.
  void skip_bytes(std::uint64_t bytes);

  /// True once a read has hit end of file.
  [[nodiscard]] bool eof() const { return eof_; }

  /// Total file size in bytes.
  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Bytes remaining from the current position to end of file.
  [[nodiscard]] std::uint64_t remaining() const { return size_ - offset_; }

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  detail::FileHandle file_;
  IoStats* stats_;
  std::uint64_t size_ = 0;
  std::uint64_t offset_ = 0;
  bool eof_ = false;
  detail::DiskSpan span_{"disk.read"};
};

/// Sequentially writable binary file. All writes are charged to `stats`.
class WriteOnlyStream {
 public:
  /// Create/truncate `path` for writing; throws std::system_error on failure.
  explicit WriteOnlyStream(const std::filesystem::path& path,
                           IoStats& stats = IoStats::global());

  /// Append `data` to the file; throws std::system_error on short writes.
  void write_bytes(std::span<const std::byte> data);

  /// Bytes written so far.
  [[nodiscard]] std::uint64_t size() const { return offset_; }

  /// Flush and close, recording the stream's trace span; further writes
  /// are invalid. Throws std::system_error when the final flush fails. The
  /// destructor closes a stream not closed explicitly (errors in the
  /// destructor path are swallowed).
  void close();

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  detail::FileHandle file_;
  IoStats* stats_;
  std::uint64_t offset_ = 0;
  detail::DiskSpan span_{"disk.write"};
};

}  // namespace lasagna::io
