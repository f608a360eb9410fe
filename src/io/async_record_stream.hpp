// Record streams with an optional background stage: the I/O half of the
// sort and reduce phases' software pipelines.
//
// AsyncRecordReader prefetches fixed-size blocks through a util::Prefetch,
// so disk reads overlap the consumer's (device) work while read order, and
// therefore every record the consumer sees, is the synchronous reader's.
// AsyncRecordWriter is the mirror image: write() stages records and a
// util::Drain writes full blocks to disk in FIFO order. With a queue depth
// of 0 neither starts a thread and every call goes straight through to
// RecordReader / RecordWriter, so the synchronous path keeps its exact
// reads, writes and eof() meaning.
//
// Both charge the same IoStats as their synchronous counterparts (the
// counters are atomic) and propagate background exceptions to the caller:
// the reader rethrows from read(), the writer from write()/close().
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "io/record_stream.hpp"
#include "util/background.hpp"

namespace lasagna::io {

/// RecordReader's contract: read() appends up to `max_records` and returns
/// fewer only at end of file; eof() turns true once a read has observed the
/// end.
template <TrivialRecord T>
class AsyncRecordReader {
 public:
  /// `skip_records` is applied to the underlying reader before the prefetch
  /// thread starts (resume paths continue mid-file without re-reading).
  explicit AsyncRecordReader(const std::filesystem::path& path,
                             IoStats& stats = IoStats::global(),
                             std::size_t block_records = 1 << 16,
                             std::size_t max_queued_blocks = 2,
                             std::uint64_t skip_records = 0)
      : reader_(path, stats,
                skip_records),  // open failures throw in the caller's thread
        block_records_(std::max<std::size_t>(1, block_records)),
        prefetch_(max_queued_blocks > 0),
        blocks_(
            [this](std::vector<T>& block) {
              return reader_.read(block, block_records_) > 0;
            },
            max_queued_blocks) {}

  /// Read up to `max_records` records into `out` (appended). Returns the
  /// number of records read; fewer than requested only at end of file.
  /// Rethrows any exception the prefetch thread hit at the point in the
  /// stream where it occurred.
  std::size_t read(std::vector<T>& out, std::size_t max_records) {
    if (!prefetch_) return reader_.read(out, max_records);
    std::size_t got = 0;
    while (got < max_records && !eof_) {
      if (cursor_ == current_.size()) {
        cursor_ = 0;
        current_.clear();
        eof_ = !blocks_.next(current_);
        continue;
      }
      const std::size_t take =
          std::min(max_records - got, current_.size() - cursor_);
      out.insert(out.end(), current_.begin() + cursor_,
                 current_.begin() + cursor_ + take);
      cursor_ += take;
      got += take;
    }
    return got;
  }

  /// True once a read has hit end of file (consumer-side view).
  [[nodiscard]] bool eof() const {
    return prefetch_ ? eof_ : reader_.eof();
  }

 private:
  RecordReader<T> reader_;  // the prefetch thread's, once it runs
  std::size_t block_records_;
  bool prefetch_;

  // Consumer-side state.
  std::vector<T> current_;
  std::size_t cursor_ = 0;
  bool eof_ = false;

  util::Prefetch<std::vector<T>> blocks_;  // last: its thread reads reader_
};

/// RecordWriter's interface. Records are staged into blocks of exactly
/// `block_records` (the last may be short) and written by the drain thread
/// in FIFO order, so the file contents are byte-identical to a synchronous
/// writer's.
template <TrivialRecord T>
class AsyncRecordWriter {
 public:
  explicit AsyncRecordWriter(const std::filesystem::path& path,
                             IoStats& stats = IoStats::global(),
                             std::size_t block_records = 1 << 16,
                             std::size_t max_queued_blocks = 2)
      : writer_(path, stats),
        block_records_(std::max<std::size_t>(1, block_records)),
        stage_(max_queued_blocks > 0),
        blocks_(
            [this](std::vector<T>& block) {
              writer_.write(std::span<const T>(block));
            },
            max_queued_blocks) {
    if (stage_) staging_.reserve(block_records_);
  }

  // An unclosed writer abandons queued blocks (mirrors WriteOnlyStream's
  // destructor swallowing errors); call close() to flush and check.

  void write(std::span<const T> records) {
    count_ += records.size();
    if (!stage_) {
      writer_.write(records);
      return;
    }
    // Fill staging to exactly one block before submitting it, so staging
    // never holds more than a block whatever the part sizes.
    while (!records.empty()) {
      const std::size_t take =
          std::min(block_records_ - staging_.size(), records.size());
      staging_.insert(staging_.end(), records.begin(), records.begin() + take);
      records = records.subspan(take);
      if (staging_.size() == block_records_) submit_staging();
    }
  }

  void write_one(const T& record) { write(std::span<const T>(&record, 1)); }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  [[nodiscard]] const std::filesystem::path& path() const {
    return writer_.path();
  }

  /// Flush staged records, drain the queue, and close the file. Rethrows
  /// any background write failure.
  void close() {
    if (closed_) return;
    submit_staging();
    closed_ = true;
    blocks_.finish();
    writer_.close();
  }

 private:
  void submit_staging() {
    if (staging_.empty()) return;
    blocks_.submit(std::move(staging_));
    staging_ = {};
    staging_.reserve(block_records_);
  }

  RecordWriter<T> writer_;  // the drain thread's, once it runs
  std::size_t block_records_;
  bool stage_;

  // Producer-side state.
  std::vector<T> staging_;
  std::uint64_t count_ = 0;
  bool closed_ = false;

  util::Drain<std::vector<T>> blocks_;  // last: its thread writes writer_
};

}  // namespace lasagna::io
