// Sort phase (paper section III-B): external-memory sort of every
// per-length partition by fingerprint, using the hybrid two-level scheme —
//
//   level 1 (disk <-> host):   host blocks of m_h records are loaded,
//                              sorted, and written back as sorted runs;
//                              runs are then merged pairwise with
//                              Algorithm 1 (window-equalized streaming).
//   level 2 (host <-> device): a host block is sorted by streaming chunks
//                              of m_d records through the device radix
//                              sort, then device-merging them with the
//                              same windowed algorithm in host memory.
//                              Each merge level is planned in Algorithm-1
//                              order (which issues the device charges),
//                              then its pieces merge concurrently on the
//                              thread pool; host-backend chunk sorts run
//                              concurrently too.
//
// The hybrid scheme costs 1 + ceil(log2(n / m_h)) disk passes instead of
// 1 + ceil(log2(n / m_d)) — the paper's "3-4x fewer" disk passes.
//
// With BlockGeometry::streamed the whole phase runs as a software pipeline
// (the paper's semi-streaming claim): host block i+1 prefetches from disk
// while the device sorts block i and sorted run i-1 drains to disk, and
// device chunks double-buffer across two modeled streams. The synchronous
// path (streamed = false) remains the bitwise reference.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/map_phase.hpp"

namespace lasagna::core {

inline bool fp_less(const FpRecord& a, const FpRecord& b) {
  return a.fp < b.fp;
}

/// Sort a host-resident block by streaming device-sized chunks through the
/// GPU (level 2 of the hybrid scheme). In-place, synchronous (default
/// stream).
void sort_host_block(Workspace& ws, std::span<FpRecord> block,
                     std::uint64_t device_block_records);

/// Merge two sorted host-resident runs by streaming device-sized windows
/// through the GPU merge; emits output through `sink` in sorted order.
void device_windowed_merge(
    Workspace& ws, std::span<const FpRecord> a, std::span<const FpRecord> b,
    std::uint64_t device_block_records,
    const std::function<void(std::span<const FpRecord>)>& sink);

/// Statistics from sorting one partition file.
struct SortFileStats {
  std::uint64_t records = 0;
  unsigned host_blocks = 0;   ///< level-1 runs produced
  unsigned disk_passes = 0;   ///< full read+write passes over the data
  bool restored = false;      ///< a finished sort's checkpoint covered it
};

/// External-memory sort of one record file (Algorithm 1 at the disk level).
/// With a checkpoint that records `output` as finished and an output of the
/// recorded size, returns the recorded stats without reading either file.
SortFileStats external_sort_file(Workspace& ws,
                                 const std::filesystem::path& input,
                                 const std::filesystem::path& output,
                                 const BlockGeometry& geometry);

/// Streaming entry point into level 1 of the hybrid sort: append records in
/// their on-disk order and the builder forms exactly the runs
/// external_sort_file would — cut at `host_block_records` boundaries,
/// device-sorted with the double-buffered stream pair, and drained to
/// `<output stem>.run<N>` (streamed, by a background writer while the next
/// block fills). The distributed fused shuffle feeds this straight from
/// arriving network chunks, skipping the staged partition file entirely.
///
/// `device_mutex` (optional) is held around each block's device sort so a
/// builder can share a capacity-limited device with concurrently running
/// kernels (the owner's map phase) without overcommitting device memory.
class SortRunBuilder {
 public:
  SortRunBuilder(Workspace& ws, std::filesystem::path output,
                 const BlockGeometry& geometry,
                 std::mutex* device_mutex = nullptr);
  ~SortRunBuilder();

  SortRunBuilder(const SortRunBuilder&) = delete;
  SortRunBuilder& operator=(const SortRunBuilder&) = delete;

  /// Append records in logical order; sorts and drains a run every time the
  /// buffered block reaches `host_block_records`.
  void append(std::span<const FpRecord> records);

  /// Flush the partial tail block and wait for every run write to land.
  /// Idempotent; called implicitly by the destructor (which swallows
  /// errors — call finish() to observe failures).
  void finish();

  /// Records appended so far.
  [[nodiscard]] std::uint64_t records() const;

  /// Run files produced (valid after finish()).
  [[nodiscard]] const std::vector<std::filesystem::path>& runs() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Level 2 of the hybrid sort as a standalone entry point: pairwise
/// Algorithm-1 merges of already-sorted `runs` until one remains, renamed
/// to `output` (an empty run list writes an empty output). Consumes the run
/// files. The merge tree, scratch names and output bytes are identical to
/// external_sort_file's over the same runs. Returns the full stats with
/// `records` counted from the merged output.
SortFileStats merge_sorted_runs(Workspace& ws,
                                std::vector<std::filesystem::path> runs,
                                const std::filesystem::path& output,
                                const BlockGeometry& geometry);

/// One sorted partition ready for the reduce phase.
struct SortedPartition {
  unsigned length = 0;
  std::filesystem::path suffix_file;
  std::filesystem::path prefix_file;
  std::uint64_t suffix_records = 0;
  std::uint64_t prefix_records = 0;
};

struct SortResult {
  std::vector<SortedPartition> partitions;  ///< ascending length
  std::uint64_t records_sorted = 0;
  unsigned max_disk_passes = 0;
  bool resumed = false;  ///< every sorted file came from the checkpoint
};

/// Sort every partition produced by the map phase; original partition files
/// are deleted as they are consumed.
[[nodiscard]] SortResult run_sort_phase(Workspace& ws, MapResult& map,
                                        const BlockGeometry& geometry);

}  // namespace lasagna::core
