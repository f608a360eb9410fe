// Distributed LaSAGNA (paper section III-E): N simulated nodes, each with
// private storage and its own (simulated) GPU, cooperating through active
// messages.
//
//   map     — the master hands out input blocks on request; each node
//             fingerprints its blocks into local per-length partitions and
//             *pushes* the tuples to their owners (l mod N) in chunked
//             active messages as each block completes, so the shuffle
//             overlaps the map instead of running as a barrier phase.
//             Chunks are codec-compressed on the wire (dist/codec.hpp):
//             the network lane carries compressed bytes, disk and device
//             charge logical bytes, and the codec's host cost is modeled.
//   shuffle — with fusion (the default for streamed runs without a
//             work_dir) owners never stage: arriving chunks feed
//             dist::ShuffleIngest, which forms the sort phase's level-1
//             runs directly in staged read order, so the shuffle phase
//             only adopts ingest results. The staged fallback (sync runs,
//             checkpointed runs) assembles per-(key, block) stage files
//             into per-key partition files in global block order,
//             deleting each stage file as it is consumed; both paths
//             reproduce the single-node partition bytes exactly.
//   sort    — each owner external-sorts its partitions (same hybrid
//             two-level scheme as the single-node pipeline); fused runs
//             start directly at the pairwise merge tree over the ingest
//             runs and produce identical sorted bytes.
//   reduce  — every owner scans its partitions in parallel, longest
//             first, into candidate edge lists (one checkpoint sidecar
//             each); the strategy decides how candidates become edges.
//             The token ring walks them in descending length order: the
//             out-degree bit-vector is the token passed from the owner of
//             partition l+1 to the owner of partition l, which serializes
//             graph building while overlap-finding runs in parallel, and
//             edge sets stay distributed until compress gathers them. The
//             speculative reduce reconciles them on node 0; the reduced
//             graph routes them to the owners of their vertices.
//   compress— node 0 merges the edge sets and generates contigs.
//
// Wall-clock on the test host says little about an 8-node cluster, so each
// phase also gets a modeled time. Each node runs a four-lane overlap model
// — device, disk, host, network — and a phase's modeled span is max over
// nodes of the streamed lane combination (max of lanes when streamed, sum
// when synchronous), plus an event-driven token simulation for the reduce
// phase (the paper's t_o * p/n + t_g * p behaviour).
//
// Fault tolerance: with `work_dir` + `resume` set, every node keeps a
// per-node checkpoint manifest; a run killed mid-phase (fault injection:
// "node:" policies) resumes from each node's completed prefix without
// redoing finished blocks, merges, sorts or reduce partitions.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/compress_phase.hpp"
#include "core/config.hpp"
#include "util/stats.hpp"

namespace lasagna::dist {

/// How the distributed reduce coordinates greedy graph building. Both
/// strategies find overlaps the same way — every node scans its owned
/// partitions in parallel and checkpoints each partition's candidates —
/// so a finished work dir of either resumes under the other.
enum class ReduceStrategy {
  /// The paper's implementation (III-E3): partitions owned by length, the
  /// out-degree bit-vector travels as a token from the owner of length
  /// l+1 to the owner of length l, serializing graph construction over
  /// the scanned candidates.
  kLengthToken,
  /// Partitioned speculative greedy (core::SpeculativeResolver): every
  /// node locally resolves its candidates in the canonical rank order
  /// (no token) and proposes its acceptances; a reconciliation superstep
  /// on node 0 kills cross-partition conflicts and defers their wake,
  /// iterating to a fixpoint. The committed edge set equals sequential
  /// greedy over the global rank order — i.e. exactly the token result,
  /// byte-identical contigs — while the per-candidate t_g cost
  /// parallelizes across nodes.
  kSpeculative,
};

/// The shared run configuration plus the cluster's own settings. Every
/// node runs with the same `machine`, whose `time_scale` also scales the
/// network (`ClusterTopology::fat_tree`) and the reduce's per-candidate
/// graph costs; `resume` restores from every node's manifest or from none.
struct ClusterConfig : core::RunConfig {
  unsigned node_count = 4;
  /// How the greedy reduce is coordinated. With `graph` set to `kReduced`
  /// the strategy is ignored: owners of contiguous vertex blocks collect
  /// the candidate edges, transitively reduce their blocks locally against
  /// boundary (halo) adjacency fetched from neighboring owners, and a
  /// stitch superstep reassembles the unitig graph on node 0 — contigs
  /// byte-identical to the single-node `--graph=reduced` pipeline at every
  /// node count — so there is no greedy edge set to coordinate.
  ReduceStrategy reduce_strategy = ReduceStrategy::kLengthToken;
  /// Fuse the shuffle into the sort: owners feed arriving chunks straight
  /// into sort-run formation instead of staging them on disk. Requires
  /// `streamed` and an empty `work_dir` (staging is what checkpointed
  /// re-pushes splice into); ignored otherwise. Contigs and the shuffle
  /// hash are byte-identical either way.
  bool fuse_shuffle = true;
  /// Overlap each node's lanes (device/disk/host/network) within phases,
  /// and the shuffle with the map. Contigs are byte-identical either way;
  /// only the modeled clocks change.
  bool streamed = true;

  /// `nodes` SuperMIC nodes (`MachineConfig::supermic_k20(scale)`).
  static ClusterConfig supermic(unsigned nodes, double scale = 4096.0);
};

using NodePhaseBreakdown = util::NodePhaseBreakdown;

struct DistributedResult {
  util::RunStats stats;  ///< phases: map, shuffle, sort, reduce, compress
  std::vector<std::vector<NodePhaseBreakdown>> per_node;  ///< [phase][node]
  std::uint32_t read_count = 0;
  std::uint64_t candidate_edges = 0;
  std::uint64_t accepted_edges = 0;
  /// Logical tuple bytes of all owned partitions — mode-independent, so
  /// fused and staged runs of the same input agree exactly.
  std::uint64_t shuffle_bytes = 0;
  /// Compressed bytes the push shuffle actually put on the wire (remote
  /// pushes only; self-pushes travel raw and free).
  std::uint64_t wire_bytes = 0;
  /// Logical / wire ratio of the remote push traffic (1.0 when nothing
  /// was pushed to another node).
  double compression_ratio = 1.0;
  /// High-water mark of the summed per-node workspace directories,
  /// sampled at phase boundaries and at each shuffle/sort key step.
  std::uint64_t peak_workspace_bytes = 0;
  /// Order-independent FNV fold over per-key, per-role partition content
  /// hashes — equal folds mean the shuffle produced identical partitions.
  std::uint64_t shuffle_hash = 0;
  /// Phases that completed entirely from checkpointed state on resume.
  unsigned phases_resumed = 0;
  /// Speculative reduce only (0 otherwise): total reconciliation rounds,
  /// proposals killed by cross-partition conflicts, and pipelined
  /// reconciliation supersteps (one per scanned partition with
  /// candidates; each superstep runs rounds to a prefix fixpoint, so
  /// reduce_rounds <= reduce_conflicts + reduce_supersteps).
  unsigned reduce_rounds = 0;
  std::uint64_t reduce_conflicts = 0;
  unsigned reduce_supersteps = 0;
  /// Reduced graph mode only (0 otherwise): directed full-graph edges
  /// before reduction and transitive edges removed, summed over owners.
  std::uint64_t full_edges = 0;
  std::uint64_t transitive_removed = 0;
  core::ContigStats contigs;
};

/// Run the distributed pipeline over a shared-filesystem FASTQ.
[[nodiscard]] DistributedResult run_distributed(
    const std::filesystem::path& fastq,
    const std::filesystem::path& output_fasta, const ClusterConfig& config);

}  // namespace lasagna::dist
