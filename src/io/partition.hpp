// Length-keyed partition file sets.
//
// The map phase partitions (fingerprint, read-ID) tuples by prefix/suffix
// length (paper section III-A "Partitioning"): one file per length l in
// [l_min, l_max). This class owns those files for one role (suffixes or
// prefixes) inside one storage directory.
#pragma once

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "io/record_stream.hpp"

namespace lasagna::io {

/// A partition file's name for one role ("sfx"/"pfx"), length and
/// extension, e.g. "sfx_00042.sorted". Checkpoint keys and fault-spec
/// `match=` patterns are spelled with these names.
[[nodiscard]] inline std::string partition_file_name(std::string_view role,
                                                     unsigned length,
                                                     std::string_view ext) {
  char digits[16];
  std::snprintf(digits, sizeof(digits), "_%05u.", length);
  return std::string(role) + digits + std::string(ext);
}

template <TrivialRecord T>
class PartitionSet {
 public:
  /// `role` is a filename prefix such as "sfx" or "pfx".
  PartitionSet(std::filesystem::path dir, std::string role,
               IoStats& stats = IoStats::global())
      : dir_(std::move(dir)), role_(std::move(role)), stats_(&stats) {
    std::filesystem::create_directories(dir_);
  }

  /// Append records for partition `length` (writer opened lazily).
  void append(unsigned length, std::span<const T> records) {
    auto& w = writer(length);
    w.write(records);
    counts_[length] = w.count();
  }

  void append_one(unsigned length, const T& record) {
    auto& w = writer(length);
    w.write_one(record);
    counts_[length] = w.count();
  }

  /// Close all writers; the set becomes readable.
  void finalize() {
    for (auto& [length, w] : writers_) w->close();
    writers_.clear();
    finalized_ = true;
  }

  /// Adopt already-written partition files (checkpoint resume): install the
  /// recorded per-length counts and mark the set finalized without opening
  /// any writers. The files themselves are validated by the caller.
  void restore_finalized(const std::map<unsigned, std::uint64_t>& counts) {
    if (!writers_.empty()) {
      throw std::logic_error("PartitionSet::restore_finalized after append");
    }
    counts_ = counts;
    finalized_ = true;
  }

  /// Lengths that received at least one record, ascending.
  [[nodiscard]] std::vector<unsigned> lengths() const {
    std::vector<unsigned> out;
    out.reserve(counts_.size());
    for (const auto& [length, count] : counts_) {
      if (count > 0) out.push_back(length);
    }
    return out;
  }

  /// Number of records written to partition `length` (0 if none).
  [[nodiscard]] std::uint64_t count(unsigned length) const {
    const auto it = counts_.find(length);
    return it == counts_.end() ? 0 : it->second;
  }

  /// File path of partition `length` (exists only if count(length) > 0).
  [[nodiscard]] std::filesystem::path path(unsigned length) const {
    return dir_ / partition_file_name(role_, length, "bin");
  }

  /// Open a reader over partition `length`. The set must be finalized.
  [[nodiscard]] RecordReader<T> open(unsigned length) const {
    if (!finalized_) {
      throw std::logic_error("PartitionSet::open before finalize");
    }
    return RecordReader<T>(path(length), *stats_);
  }

  /// Remove the file backing partition `length` (after it is consumed).
  void drop(unsigned length) {
    std::error_code ec;
    std::filesystem::remove(path(length), ec);
    counts_.erase(length);
  }

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }
  [[nodiscard]] const std::string& role() const { return role_; }

 private:
  RecordWriter<T>& writer(unsigned length) {
    if (finalized_) {
      throw std::logic_error("PartitionSet::append after finalize");
    }
    auto it = writers_.find(length);
    if (it == writers_.end()) {
      it = writers_
               .emplace(length,
                        std::make_unique<RecordWriter<T>>(path(length),
                                                          *stats_))
               .first;
    }
    return *it->second;
  }

  std::filesystem::path dir_;
  std::string role_;
  IoStats* stats_;
  std::map<unsigned, std::unique_ptr<RecordWriter<T>>> writers_;
  std::map<unsigned, std::uint64_t> counts_;
  bool finalized_ = false;
};

}  // namespace lasagna::io
