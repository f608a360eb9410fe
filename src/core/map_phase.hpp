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
#include "seq/read_store.hpp"

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
  /// Where the input stream opens: the start of the batch that holds
  /// `first_read` (a distributed block gets it from the master's
  /// pre-scan), so a block parses only its own input. It must be a batch
  /// start of the grid batch_bases_for() cuts: from there the stream
  /// yields the same batches, and so the same per-batch device charges, as
  /// a stream read from the first byte.
  seq::BatchStart start;
  /// Run the three-stage software pipeline: background batch prefetch,
  /// double-buffered fingerprint kernels, and background tuple emission.
  /// Partition files are byte-identical either way.
  bool streamed = false;
};

/// The map's batch size in input bases on a device of `device_capacity`
/// bytes: each input base occupies two strands (forward and reverse
/// complement), and each strand base costs one byte of codes plus two
/// 16-byte fingerprints, with 1/8 of the device kept free for the lengths
/// array and allocator slack.
[[nodiscard]] std::uint64_t batch_bases_for(std::uint64_t device_capacity);

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
