// Private to src/dist: the state one run_distributed call threads through
// its phase functions (cluster.cpp) and its three reduce strategies
// (reduce.cpp).
//
// Every node prices its work from one ledger: NodeContext remembers the
// counter positions of its last mark (disk bytes on both IoStats, device
// clock, host and codec bytes, network engine clock) and lanes_since()
// turns the deltas into lane seconds. Phases close on a phase mark;
// partition scans price themselves against a mark taken just before.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/phase_ledger.hpp"
#include "core/sort_phase.hpp"
#include "dist/active_message.hpp"
#include "dist/cluster.hpp"
#include "dist/shuffle_ingest.hpp"
#include "graph/string_graph.hpp"
#include "io/tempdir.hpp"
#include "seq/read_store.hpp"
#include "util/memory_tracker.hpp"

namespace lasagna::dist::detail {

// Active-message types.
constexpr std::uint16_t kGetBlock = 0;    ///< master: next input block
constexpr std::uint16_t kPushChunk = 1;   ///< owner: shuffle tuples, pushed
constexpr std::uint16_t kGatherEdges = 2; ///< node: its edge set
constexpr std::uint16_t kGatherKeys = 3;  ///< node: partition keys it owns
constexpr std::uint16_t kBlockDone = 4;   ///< all: input block fully pushed
constexpr std::uint16_t kSpecProposals = 5;  ///< master: speculative accepts
constexpr std::uint16_t kSpecCommit = 6;     ///< all: reconciled commit delta
constexpr std::uint16_t kGraphEdges = 7;     ///< owner: directed full-graph edges
constexpr std::uint16_t kAdjFetch = 8;       ///< owner: boundary adjacency fetch
constexpr std::uint16_t kUnitigLinks = 9;    ///< owner: surviving edges for
                                             ///< in-degree accumulation
constexpr std::uint16_t kGatherUnitigs = 10; ///< master: stitched unitig edges

constexpr std::uint64_t kShuffleChunkBytes = 256 << 10;

/// Lane seconds (and `io` bytes) one node spent since a ledger mark.
struct NodeLanes {
  double device = 0.0;
  double disk = 0.0;          ///< map/sort/reduce/compress files (`io`)
  double shuffle_disk = 0.0;  ///< stage pushes + assembly (`shuffle_io`)
  double host = 0.0;          ///< host-lane bytes (tuple emission, scans)
  double codec = 0.0;         ///< wire codec encode + decode
  double network = 0.0;
  std::uint64_t bytes_read = 0;     ///< `io` traffic behind `disk`
  std::uint64_t bytes_written = 0;
};

/// The counter positions a ledger mark remembers.
struct LaneMark {
  io::IoStats::Snapshot io;
  io::IoStats::Snapshot shuffle;
  double device = 0.0;
  double network = 0.0;
  std::uint64_t host_bytes = 0;
  std::uint64_t codec_bytes = 0;
};

/// One simulated compute node: private device, disk counters and storage.
struct NodeContext {
  unsigned id = 0;
  std::unique_ptr<gpu::Device> device;
  util::MemoryTracker host{"node-host"};
  io::IoStats io;          ///< map/sort/reduce disk traffic
  io::IoStats shuffle_io;  ///< stage pushes + partition assembly
  std::filesystem::path dir;
  core::Workspace ws;
  std::unique_ptr<core::CheckpointManager> checkpoint;
  const core::MachineConfig* machine = nullptr;
  const Network* net = nullptr;

  /// Serializes fused-ingest block sorts against this node's own map
  /// kernels on the shared capacity-limited device.
  std::mutex device_mutex;
  std::unique_ptr<ShuffleIngest> ingest;  ///< live during a fused map
  std::map<unsigned, ShuffleIngest::KeyResult> fused;

  // Shuffle output: merged raw partitions this node owns, plus their
  // content hashes (for DistributedResult::shuffle_hash).
  std::map<unsigned, std::filesystem::path> owned_sfx;
  std::map<unsigned, std::filesystem::path> owned_pfx;
  std::map<unsigned, std::uint64_t> merged_hash;
  std::uint64_t shuffle_logical = 0;  ///< logical tuple bytes owned
  // Sort output.
  std::vector<core::SortedPartition> sorted;
  // Reduce output (token strategy): the edges accepted in this node's
  // partitions and their twins, by ascending source.
  std::vector<graph::Edge> edges;

  std::uint64_t host_bytes = 0;  ///< host-lane bytes, cumulative
  /// Codec host bytes, cumulative (encode at mappers, decode at owners);
  /// atomic because AM handlers charge the destination from the caller's
  /// thread.
  std::atomic<std::uint64_t> codec_bytes{0};
  bool did_work = false;  ///< ran anything not covered by checkpoints

  std::uint64_t dir_high_water = 0;  ///< peak bytes under `dir`
  LaneMark phase_mark;               ///< taken at the last phase boundary

  [[nodiscard]] LaneMark take_mark() const;
  [[nodiscard]] NodeLanes lanes_since(const LaneMark& mark) const;
  /// Lane seconds since the phase began.
  [[nodiscard]] NodeLanes lanes() const { return lanes_since(phase_mark); }
  void mark() {
    phase_mark = take_mark();
    did_work = false;
  }

  /// Sample the on-disk footprint of this node's directory into the
  /// high-water mark (workspace peak accounting; called at phase
  /// boundaries and at per-key shuffle/sort steps).
  void sample_dir();
};

/// Everything one run_distributed call shares across its phases.
struct ClusterRun {
  ClusterRun(const std::filesystem::path& fastq, const ClusterConfig& config);

  const ClusterConfig& config;
  const std::filesystem::path& fastq;
  std::optional<io::ScopedTempDir> temp;  ///< node root without a work_dir
  Network net;
  core::BlockGeometry geometry;
  /// Owners feed arriving push chunks straight into sort runs instead of
  /// staging them (streamed runs without a work_dir).
  bool fused = false;
  std::vector<NodeContext> nodes;
  /// Every read's length, from the pre-scan: the reduced graph's
  /// transitive marking needs halo vertices' lengths, and compress places
  /// reads by them (until compress takes them).
  std::vector<std::uint16_t> read_lengths;
  /// Where every map batch starts, from the pre-scan: a map block opens the
  /// input at the batch that holds its first read.
  std::vector<seq::BatchStart> batch_starts;
  double fastq_bytes = 0.0;
  std::vector<unsigned> lengths;  ///< all partition keys, ascending
  double clock = 0.0;             ///< cumulative modeled time (trace base)
  core::PhaseRows rows;           ///< dist.cluster + dist.node<k>.<lane>
  DistributedResult result;
  /// The graph compress walks: built by the speculative and reduced-graph
  /// reduces, gathered from the nodes' edge sets after a token reduce.
  std::unique_ptr<graph::StringGraph> merged;
};

/// Run `body(node)` for every node on its own thread and wait (a phase
/// barrier).
void for_each_node(std::vector<NodeContext>& nodes,
                   const std::function<void(NodeContext&)>& body);

/// Decode a reply that is a packed array of `T`.
template <typename T>
std::vector<T> get_array(const Payload& payload) {
  std::vector<T> out(payload.size() / sizeof(T));
  if (!out.empty()) {
    std::memcpy(out.data(), payload.data(), out.size() * sizeof(T));
  }
  return out;
}

inline unsigned owner_of(unsigned key, unsigned node_count) {
  return key % node_count;
}

using core::dominant_lane;
using core::to_ps;

/// What a reduce strategy hands the phase close: its modeled span, each
/// node's host and network lane seconds, and whether checkpoints covered
/// every partition.
struct ReduceOutcome {
  double modeled_seconds = 0.0;
  std::vector<double> host;
  std::vector<double> network;
  bool resumed = false;
};

/// The paper's length-ordered token ring (III-E3).
ReduceOutcome reduce_token(ClusterRun& run);
/// Partitioned speculative greedy, reconciled on node 0.
ReduceOutcome reduce_speculative(ClusterRun& run);
/// Distributed full-graph build + transitive reduction (graph = kReduced).
ReduceOutcome reduce_reduced_graph(ClusterRun& run);

}  // namespace lasagna::dist::detail
