// Map phase (paper section III-A): stream read batches to the device,
// generate prefix/suffix fingerprints for each read and its reverse
// complement with the fingerprint kernel, and partition the resulting
// (fingerprint, vertex) tuples by prefix/suffix length into per-length
// files on disk.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "fingerprint/kernels.hpp"
#include "io/partition.hpp"

namespace lasagna::core {

/// Everything the map phase leaves behind for the sort phase.
struct MapResult {
  std::unique_ptr<io::PartitionSet<FpRecord>> suffixes;
  std::unique_ptr<io::PartitionSet<FpRecord>> prefixes;
  std::uint32_t read_count = 0;
  std::uint64_t total_bases = 0;
  unsigned max_read_length = 0;
  std::uint64_t tuples_emitted = 0;
  /// Length of every processed read, indexed by read id (the compress
  /// phase needs lengths for overhang computation; recording them here
  /// saves it one full re-stream of the input).
  std::vector<std::uint16_t> read_lengths;
  /// Bytes pushed through host-side tuple emission (staging + partition
  /// appends); the pipeline's overlap model charges them to the host lane
  /// at the machine's modeled host bandwidth.
  std::uint64_t host_bytes = 0;
};

struct MapOptions {
  unsigned min_overlap = 63;
  fingerprint::FingerprintConfig fingerprints =
      fingerprint::FingerprintConfig::standard();
  /// Restrict to a sub-range of reads [first_read, first_read + max_reads);
  /// used by the distributed map where the master hands out input blocks.
  std::uint64_t first_read = 0;
  std::uint64_t max_reads = UINT64_MAX;
  /// Run the three-stage software pipeline: background batch prefetch,
  /// double-buffered fingerprint kernels, and background tuple emission.
  /// Partition files are byte-identical either way.
  bool streamed = false;
  /// Number of strand chunks for parallel emission (0 = auto: 4x the pool
  /// size). Output bytes are identical for every value; exposed so tests
  /// can prove it.
  unsigned emission_chunks = 0;
};

/// Run the map phase over `fastq` within `ws`. Partition files are created
/// under ws.dir. Throws on malformed input.
[[nodiscard]] MapResult run_map_phase(
    Workspace& ws, const std::vector<std::filesystem::path>& fastqs,
    const MapOptions& options);

inline MapResult run_map_phase(Workspace& ws,
                               const std::filesystem::path& fastq,
                               const MapOptions& options) {
  return run_map_phase(ws, std::vector<std::filesystem::path>{fastq},
                       options);
}

}  // namespace lasagna::core
