// FASTA/FASTQ parsing and writing.
//
// Input datasets (real or simulated) are stored in FASTQ; contigs are
// emitted as FASTA, matching the formats the paper's datasets use.
#pragma once

#include <filesystem>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace lasagna::io {

/// One sequencing read (or one FASTA record).
struct SequenceRecord {
  std::string id;
  std::string bases;    ///< ACGT (N allowed on input; see seq::dna)
  std::string quality;  ///< empty for FASTA
};

/// Streaming parser; auto-detects FASTA ('>') vs FASTQ ('@') per record.
class SequenceReader {
 public:
  explicit SequenceReader(std::istream& in) : in_(&in) {}

  /// Label this reader with the path it is parsing. FASTQ input bypasses
  /// the ReadOnlyStream layer (it reads an std::istream), so the label is
  /// what io::FaultInjector read policies match against.
  void set_source(std::filesystem::path path) { source_ = std::move(path); }

  /// Parse the next record; returns false at end of input.
  /// Throws std::runtime_error on malformed input.
  bool next(SequenceRecord& out);

  /// Number of records parsed so far.
  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Bytes consumed from the stream so far: each line's bytes, a `\r`
  /// before its `\n` included, plus the `\n` when the line has one. The
  /// next record (after any blank lines) starts this many bytes past where
  /// the reader started.
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  bool read_line(std::string& line);

  std::istream* in_;
  std::filesystem::path source_;
  std::uint64_t count_ = 0;
  std::uint64_t bytes_ = 0;
  std::string line_;
};

/// Parse a whole file into memory (tests / small inputs).
std::vector<SequenceRecord> read_sequence_file(
    const std::filesystem::path& path);

/// Invoke `fn` for every record in the file without keeping them all.
void for_each_sequence(const std::filesystem::path& path,
                       const std::function<void(const SequenceRecord&)>& fn);

/// Write records as FASTA with lines wrapped at `width` bases (0 = no wrap).
void write_fasta(std::ostream& out, const std::vector<SequenceRecord>& records,
                 std::size_t width = 70);
void write_fasta_file(const std::filesystem::path& path,
                      const std::vector<SequenceRecord>& records,
                      std::size_t width = 70);

/// Write records as FASTQ ('I' quality if none present).
void write_fastq(std::ostream& out,
                 const std::vector<SequenceRecord>& records);
void write_fastq_file(const std::filesystem::path& path,
                      const std::vector<SequenceRecord>& records);

}  // namespace lasagna::io
