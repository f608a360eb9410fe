// Reduce phase (paper section III-C, Algorithm 2): stream sorted suffix and
// prefix lists per partition, equalize fingerprint windows, compute batched
// lower/upper bounds on the device, and feed the resulting candidate edges
// to the greedy string graph — processing partitions in *descending* length
// order so that the greedy heuristic keeps the longest overlaps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/config.hpp"
#include "core/sort_phase.hpp"
#include "graph/string_graph.hpp"
#include "seq/read_store.hpp"

namespace lasagna::core {

struct ReduceOptions {
  /// Verify candidate matches against the actual sequences (diagnostics);
  /// requires `reads`.
  bool verify_overlaps = false;
  const seq::PackedReads* reads = nullptr;
  /// When set, candidate pairs are delivered here INSTEAD of being offered
  /// to the greedy graph — used by the speculative and reduced-graph
  /// distributed reduces, where resolution happens globally. The overlap
  /// length and matching fingerprint ride along with each pair.
  std::function<void(graph::VertexId, graph::VertexId, std::uint16_t,
                     const gpu::Key128&)>
      candidate_sink;
  /// Overlap the phase's three lanes: async window prefetch from disk,
  /// double-buffered device bound kernels, and host greedy insertion
  /// deferred one window behind the device. The edge set is identical to
  /// the synchronous path's (insertion order is preserved exactly).
  bool streamed = false;
};

struct ReduceResult {
  std::unique_ptr<graph::StringGraph> graph;
  std::uint64_t candidate_edges = 0;  ///< fingerprint matches offered
  std::uint64_t accepted_edges = 0;   ///< survived the greedy filter (pairs)
  std::uint64_t false_positives = 0;  ///< only counted when verifying
  /// Bytes pushed through host-side greedy edge insertion; the pipeline's
  /// overlap model charges them to the host lane at the machine's modeled
  /// host bandwidth.
  std::uint64_t host_bytes = 0;
};

/// Build the greedy string graph from all sorted partitions.
[[nodiscard]] ReduceResult run_reduce_phase(Workspace& ws,
                                            const SortResult& sorted,
                                            std::uint32_t read_count,
                                            const ReduceOptions& options);

/// Process one partition into an existing graph (used by the distributed
/// reduce, where the out-degree bit-vector token arrives between
/// partitions).
struct PartitionReduceStats {
  std::uint64_t candidates = 0;
  std::uint64_t accepted = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t host_bytes = 0;  ///< host greedy-insertion bytes processed
};
PartitionReduceStats reduce_partition(Workspace& ws,
                                      const SortedPartition& partition,
                                      graph::StringGraph& graph,
                                      const ReduceOptions& options);

}  // namespace lasagna::core
