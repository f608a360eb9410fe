// Phase-granular checkpoint/restart for the assembly pipeline.
//
// A CheckpointManager owns a small text manifest in the workspace directory
// plus binary sidecar files (read lengths, graph edges, the distributed
// reduce's per-partition state). Entries are recorded at phase boundaries
// and — in the sort phase — per level-1 run, so a run killed mid-sort
// resumes from the last finished run instead of the phase start. The
// manifest carries an input fingerprint and a config hash; a resume against
// different inputs or parameters is detected and falls back to a fresh run.
//
// Durability model: reset() writes the manifest's header to a temp file and
// renames it into place (rename is atomic on POSIX); every record() then
// appends one `entry` line and flushes it, so the manifest on disk is
// always a prefix of the work actually completed. load() keeps the last
// line for each key and drops a final line without its newline (an append
// a crash cut short). Sidecars are written by temp file and rename, before
// the entry that references them, and check themselves: a header carries
// the record size, the record count and a checksum of the payload, so a
// torn, resized or corrupted sidecar loads as missing and its work is
// recomputed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "io/record_stream.hpp"

namespace lasagna::core {

class CheckpointManager {
 public:
  /// Named uint64 counters attached to one manifest entry.
  using Counters = std::map<std::string, std::uint64_t>;

  /// Bytes in front of a sidecar's first record.
  static constexpr std::size_t kSidecarHeaderBytes = 32;

  /// `dir` is the workspace directory the manifest lives in;
  /// `input_fingerprint` and `config_hash` guard against resuming across
  /// different inputs or parameters. Sidecar traffic is charged to `io`.
  CheckpointManager(std::filesystem::path dir,
                    std::uint64_t input_fingerprint,
                    std::uint64_t config_hash,
                    io::IoStats& io = io::IoStats::global());

  /// Load an existing manifest. Returns true when one exists, every
  /// complete line parses, every entry under one of the `numbered` key
  /// prefixes ends in a decimal number, and it matches this run's input
  /// fingerprint and config hash (entries become queryable, and a torn
  /// final line is cut off the file); false otherwise (state stays empty).
  bool load(std::initializer_list<std::string_view> numbered = {});

  /// Discard any previous checkpoint state in the directory and write a
  /// fresh manifest header.
  void reset();

  /// True when `key` was recorded (by this run or a loaded manifest).
  [[nodiscard]] bool has(const std::string& key) const;

  /// The counters recorded for `key` (empty map if absent).
  [[nodiscard]] Counters counters(const std::string& key) const;

  /// One counter of one entry, or `fallback` when absent.
  [[nodiscard]] std::uint64_t counter(const std::string& key,
                                      const std::string& name,
                                      std::uint64_t fallback = 0) const;

  /// Entries whose key starts with `prefix`, in lexicographic key order
  /// (numeric key segments are zero-padded so this is also numeric order).
  [[nodiscard]] std::vector<std::string> keys_with_prefix(
      const std::string& prefix) const;

  /// The entries under `prefix`, one of the prefixes load() was given as
  /// numbered, by the number that ends their key.
  [[nodiscard]] std::map<std::uint64_t, std::string> numbered_keys(
      const std::string& prefix) const;

  /// Record (or overwrite) an entry by appending its line to the manifest.
  /// Thread-safe: the streamed sort marks runs from its writer thread.
  void record(const std::string& key, const Counters& counters);

  /// Write `records` as the sidecar `checkpoint.<name>`: a header (magic,
  /// format version, record size, record count, FNV-1a-64 of the payload)
  /// and the records go to `checkpoint.<name>.tmp`, which is then renamed
  /// into place. Thread-safe across distinct names.
  template <io::TrivialRecord T>
  void save(const std::string& name, std::span<const T> records) {
    save_bytes(name, sizeof(T), records.size(), std::as_bytes(records));
  }

  /// The records of sidecar `name`, or nothing when the file is missing,
  /// torn, resized, holds records of another size or fails its checksum.
  template <io::TrivialRecord T>
  [[nodiscard]] std::optional<std::vector<T>> load(
      const std::string& name) const {
    std::vector<T> records;
    const bool ok = load_bytes(name, sizeof(T), [&records](std::uint64_t n) {
      records.resize(n);
      return std::as_writable_bytes(std::span<T>(records));
    });
    if (!ok) return std::nullopt;
    return records;
  }

  /// FNV-1a over each input's filename, size and every byte, in order: a
  /// resume against any other input bytes (a same-size edit included)
  /// starts fresh instead of splicing stale state. Reads each file once in
  /// large blocks, outside the pipeline's I/O accounting.
  static std::uint64_t fingerprint_inputs(
      const std::vector<std::filesystem::path>& files);

 private:
  void write_header_locked();  ///< header-only manifest.tmp + rename

  void save_bytes(const std::string& name, std::size_t record_size,
                  std::uint64_t count, std::span<const std::byte> payload);
  /// Validates the header against the file, then reads the payload into
  /// the span `alloc(count)` returns and checks its checksum.
  bool load_bytes(
      const std::string& name, std::size_t record_size,
      const std::function<std::span<std::byte>(std::uint64_t)>& alloc) const;

  std::filesystem::path dir_;
  std::uint64_t input_fingerprint_;
  std::uint64_t config_hash_;
  io::IoStats* io_;
  mutable std::mutex mutex_;
  std::map<std::string, Counters> entries_;
};

/// Hash of the parameters that shape intermediate files — l_min, the host
/// and device memory sizes, the four fingerprint parameters and the graph
/// mode — since resuming under a changed value of any of these would splice
/// incompatible state. Both drivers guard their manifests with it (the
/// cluster folds its node count on top). Settings that only filter the
/// FASTA, which compress rewrites on every run, stay out.
std::uint64_t hash_assembly_config(const RunConfig& config);

}  // namespace lasagna::core
