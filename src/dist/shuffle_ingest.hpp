// Fused shuffle ingest: the owner-side half of shuffle/sort fusion.
//
// PR 5's shuffle staged every pushed chunk to a per-(role, key, block)
// file, concatenated the files into merged partitions at a barrier, and
// only then let the sort phase read them back — three full disk passes
// over the shuffle volume before the first sort run existed. ShuffleIngest
// deletes all of that: arriving chunks feed core::SortRunBuilder directly,
// so by the time the map barrier falls every owned partition already
// exists as sorted level-1 runs and the sort phase starts at the merge
// tree (core::merge_sorted_runs).
//
// Byte identity is preserved by feeding exactly the staged read order:
// ascending global block id, then push offset within the block. Chunks
// for a block arrive in offset order (one mapper pushes a block's files
// sequentially over synchronous AMs), but blocks complete out of order
// across mappers — so chunks buffer per (role, key, block) until the
// mapper broadcasts the block's completion, and a frontier feeds finished
// blocks in ascending id order. Run files are cut at the same
// host_block_records boundaries the staged external sort would use, so
// the final merged .sorted bytes are identical.
//
// Threading: AM handlers only enqueue onto an unbounded util::Drain
// (deliver/block_done are cheap and never touch the device); its single
// thread owns all per-key state and performs the device block sorts,
// serialized against the owner's map kernels through the shared device
// mutex. Nothing bounds the queue or the pending chunks; the gauge
// `dist.shuffle.ingest_peak_bytes` reports the most bytes one node's
// ingest held (queued + pending + carry).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hpp"
#include "util/fnv.hpp"

namespace lasagna::dist {

class ShuffleIngest {
 public:
  /// One role's partition after ingest: its sorted level-1 runs plus the
  /// content fingerprint of the logical bytes fed (FNV-1a, staged-merge
  /// compatible).
  struct Partition {
    std::vector<std::filesystem::path> runs;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::uint64_t hash = util::fnv::kOffset;  ///< FNV-1a over fed bytes
    bool seen = false;       ///< any chunk arrived (even empty)
  };
  struct KeyResult {
    Partition suffix;
    Partition prefix;
  };

  /// `ws` is the owner's workspace snapshot; run files land under
  /// `run_dir` named like the staged sort's scratch (`sfx_%05u.run<N>`).
  /// `device_mutex` serializes ingest block sorts against the owner's map
  /// kernels on the shared capacity-limited device.
  ShuffleIngest(const core::Workspace& ws,
                const core::BlockGeometry& geometry,
                std::filesystem::path run_dir, std::mutex* device_mutex);
  ~ShuffleIngest();

  ShuffleIngest(const ShuffleIngest&) = delete;
  ShuffleIngest& operator=(const ShuffleIngest&) = delete;

  /// Enqueue one pushed chunk (AM handler thread; takes ownership).
  /// A zero-length chunk still registers the (role, key) as present.
  /// This and block_done() rethrow an earlier ingest failure.
  void deliver(std::uint8_t role, std::uint32_t key, std::uint32_t block,
               std::vector<std::byte> bytes);

  /// All chunks of global block `block` have been delivered (the mapper
  /// broadcasts this after the block's last push).
  void block_done(std::uint32_t block);

  /// Drain the queue, flush every run builder, and return the per-key
  /// results. Rethrows any ingest failure. Call exactly once, after the
  /// map barrier (every block's chunks and completion delivered).
  /// Destroying an unfinished ingest abandons the queued chunks.
  [[nodiscard]] std::map<unsigned, KeyResult> finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lasagna::dist
