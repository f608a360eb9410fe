// Packed read storage and batched streaming from FASTQ.
//
// Reads are stored 2-bit-packed. The pipeline's map phase consumes reads in
// bounded batches (disk -> host streaming, first level of the paper's
// two-level model); the compress phase re-streams reads to substitute
// sequences into contig offsets.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "seq/dna.hpp"

namespace lasagna::seq {

/// In-memory packed collection of reads (lengths may vary).
class PackedReads {
 public:
  /// Append a read; returns its id. Non-ACGT characters are sanitized.
  std::uint32_t add(std::string_view bases);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }

  [[nodiscard]] unsigned length(std::uint32_t id) const {
    return static_cast<unsigned>(offsets_[id + 1] - offsets_[id]);
  }

  /// Longest read length in the store (0 when empty).
  [[nodiscard]] unsigned max_length() const { return max_length_; }

  /// Total number of bases.
  [[nodiscard]] std::uint64_t total_bases() const { return offsets_.back(); }

  /// Base `pos` of read `id` (0-based).
  [[nodiscard]] Base base(std::uint32_t id, unsigned pos) const {
    const std::uint64_t bit = (offsets_[id] + pos) * 2;
    return static_cast<Base>((packed_[bit >> 6] >> (bit & 63)) & 3u);
  }

  /// Decode a whole read to a string.
  [[nodiscard]] std::string decode(std::uint32_t id) const;

  /// Decode the reverse complement of a read.
  [[nodiscard]] std::string decode_rc(std::uint32_t id) const;

  /// Approximate resident bytes (packed bases + offsets).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return packed_.size() * 8 + offsets_.size() * 8;
  }

  /// Load every read from a FASTA/FASTQ file.
  static PackedReads from_file(const std::filesystem::path& path);

  /// Load from several files, ids assigned across them in order.
  static PackedReads from_files(
      const std::vector<std::filesystem::path>& paths);

  /// Build from plain strings (tests).
  static PackedReads from_strings(const std::vector<std::string>& reads);

 private:
  std::vector<std::uint64_t> packed_;        // 32 bases per word
  std::vector<std::uint64_t> offsets_{0};    // base offset per read
  unsigned max_length_ = 0;
};

/// Where a batch starts: the id of its first read and the byte offset of
/// that read's record in its file.
struct BatchStart {
  std::uint32_t first_id = 0;
  std::uint64_t offset = 0;
};

/// One batch of reads decoded for device processing.
struct ReadBatch {
  std::uint32_t first_id = 0;       ///< id of reads[0]
  std::uint64_t offset = 0;         ///< byte offset of reads[0] in its file
  std::vector<std::string> reads;   ///< plain ACGT strings
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(reads.size());
  }
  [[nodiscard]] BatchStart start() const { return {first_id, offset}; }
};

/// Streams one or more FASTQ/FASTA files as batches with at most
/// `max_batch_bases` bases each (the map phase's disk->host streaming
/// granularity). Multiple files are read back to back with globally
/// consecutive read ids — real sequencing runs ship as several files.
///
/// A batch ends before the first record that would overflow it, and that
/// record starts the next one, so a stream reopened at any batch's start()
/// with the same batch size yields exactly the batches that followed it.
class ReadBatchStream {
 public:
  /// Read from `start`: its offset is a byte offset in the first file, and
  /// ids count on from its first_id.
  ReadBatchStream(const std::filesystem::path& path,
                  std::uint64_t max_batch_bases, BatchStart start = {});
  ReadBatchStream(std::vector<std::filesystem::path> paths,
                  std::uint64_t max_batch_bases, BatchStart start = {});
  ~ReadBatchStream();

  ReadBatchStream(const ReadBatchStream&) = delete;
  ReadBatchStream& operator=(const ReadBatchStream&) = delete;

  /// Fill the next batch; returns false when the file is exhausted.
  bool next(ReadBatch& out);

  /// Reads handed out so far.
  [[nodiscard]] std::uint32_t reads_seen() const { return next_id_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t max_batch_bases_;
  std::uint32_t next_id_ = 0;
};

}  // namespace lasagna::seq
