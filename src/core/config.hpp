// Pipeline configuration: machine shape (host/device memory, GPU profile,
// disk bandwidth), assembly parameters, and the shared per-run workspace.
//
// Scaling rule: the paper runs 398 GB datasets against 64-128 GB hosts and
// 6-12 GB GPUs; the scaled presets divide all three by the same factor so
// that pass counts — the quantity that drives the phase profile — are
// preserved (see DESIGN.md).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "fingerprint/rabin_karp.hpp"
#include "gpu/device.hpp"
#include "gpu/profile.hpp"
#include "io/io_stats.hpp"
#include "util/memory_tracker.hpp"

namespace lasagna::core {

class CheckpointManager;

/// The machine a run models.
struct MachineConfig {
  std::string name = "k40-128";
  std::uint64_t host_memory_bytes = 32ull << 20;    ///< scaled 128 GB
  std::uint64_t device_memory_bytes = 3ull << 20;   ///< scaled 12 GB
  gpu::GpuProfile gpu_profile = gpu::GpuProfile::k40();
  /// Modeled disk bandwidth. The paper's clusters stream 100-500 MB/s per
  /// node; scaled runs keep the ratio of compute to I/O by scaling this
  /// with the memory scale.
  double disk_bandwidth_bytes_per_sec = 500e6 / 4096.0;
  /// The dataset/memory scale factor this machine models. Disk bandwidth
  /// is divided by it (above), which keeps disk time in full-size-world
  /// units; device kernels run on scaled data at *real* GPU rates, so
  /// modeled device seconds are multiplied by this factor to land in the
  /// same units.
  double time_scale = 4096.0;
  /// Modeled host-stage throughput (tuple emission, greedy edge
  /// insertion): streaming small-record updates run well below memcpy
  /// speed on paper-era Xeons; 1 GB/s is a conservative figure. Divided by
  /// the memory scale like disk bandwidth, so modeled host seconds are in
  /// full-size-world units.
  double host_bandwidth_bytes_per_sec = 1e9 / 4096.0;

  /// QueenBee II node: 128 GB host + K40 12 GB (Tables II/IV), divided by
  /// `scale`.
  static MachineConfig queenbee_k40(double scale = 4096.0);
  /// SuperMIC node: 64 GB host + K20X 6 GB (Tables III/V), divided by
  /// `scale`.
  static MachineConfig supermic_k20(double scale = 4096.0);
};

inline MachineConfig MachineConfig::queenbee_k40(double scale) {
  MachineConfig m;
  m.name = "k40-128";
  m.host_memory_bytes =
      static_cast<std::uint64_t>(128.0 * (1ull << 30) / scale);
  m.device_memory_bytes =
      static_cast<std::uint64_t>(12.0 * (1ull << 30) / scale);
  m.gpu_profile = gpu::GpuProfile::k40();
  m.disk_bandwidth_bytes_per_sec = 500e6 / scale;
  m.host_bandwidth_bytes_per_sec = 1e9 / scale;
  m.time_scale = scale;
  return m;
}

inline MachineConfig MachineConfig::supermic_k20(double scale) {
  MachineConfig m;
  m.name = "k20-64";
  m.host_memory_bytes =
      static_cast<std::uint64_t>(64.0 * (1ull << 30) / scale);
  m.device_memory_bytes =
      static_cast<std::uint64_t>(6.0 * (1ull << 30) / scale);
  m.gpu_profile = gpu::GpuProfile::k20x();
  m.disk_bandwidth_bytes_per_sec = 500e6 / scale;
  m.host_bandwidth_bytes_per_sec = 1e9 / scale;
  m.time_scale = scale;
  return m;
}

/// String-graph construction mode. `kGreedy` is the paper's
/// at-most-one-out-edge greedy graph. `kReduced` keeps the full overlap
/// graph, runs the blocked parallel Myers transitive reduction, and walks
/// the unambiguous unitig links of the reduced graph (arXiv:2010.10055 /
/// arXiv:2207.04350). The mode changes the contigs, so — unlike the
/// streamed_*/backend toggles — it participates in the checkpoint config
/// hash.
enum class GraphMode : std::uint8_t { kGreedy = 0, kReduced = 1 };

[[nodiscard]] inline const char* graph_mode_name(GraphMode mode) {
  return mode == GraphMode::kReduced ? "reduced" : "greedy";
}

/// What both drivers share: the machine, the assembly parameters every
/// node's map, reduce and compress run with, and the workspace. The
/// single-node pipeline (`AssemblyConfig`) and the simulated cluster
/// (`dist::ClusterConfig`) each add their own settings on top.
struct RunConfig {
  MachineConfig machine;
  unsigned min_overlap = 63;  ///< l_min (paper IV-A: SGA-suggested values)
  fingerprint::FingerprintConfig fingerprints =
      fingerprint::FingerprintConfig::standard();
  /// Emit reads with no overlaps as singleton contigs.
  bool include_singletons = false;
  /// Graph mode: greedy (default) or reduced (full graph + blocked
  /// parallel transitive reduction + unitig walk). Part of the checkpoint
  /// config hash — reduced-mode intermediates do not interchange with
  /// greedy ones.
  GraphMode graph = GraphMode::kGreedy;
  /// Working directory for intermediate files (empty = fresh temp dir).
  /// The cluster keeps node k's under `work_dir/node<k>`.
  std::filesystem::path work_dir;
  /// Resume from the checkpoint manifests in `work_dir` (if they exist and
  /// match this run's inputs and `hash_assembly_config`): completed phases
  /// and finished sort runs are skipped, and the output is byte-identical
  /// to an uninterrupted run. Requires a persistent `work_dir`; the
  /// single-node pipeline ignores it in verify_overlaps mode (which pins
  /// state that cannot be checkpointed).
  bool resume = false;
};

/// Single-node assembly parameters.
struct AssemblyConfig : RunConfig {
  /// Drop contigs shorter than this from the FASTA output (0 = keep all).
  std::uint32_t min_contig_length = 0;
  /// Verify candidate overlaps against the actual sequences and drop
  /// false-positive fingerprint matches (test/diagnostic mode; requires
  /// keeping the packed reads in host memory).
  bool verify_overlaps = false;
  /// Run the sort phase's streamed pipeline (paper's semi-streaming model:
  /// disk I/O overlaps device work, device chunks double-buffer across two
  /// streams). Output is byte-identical either way; only the modeled
  /// timeline and wall-clock overlap change.
  bool streamed_sort = true;
  /// Run the map phase's three-stage software pipeline: background FASTQ
  /// batch prefetch, double-buffered fingerprint kernels, and background
  /// tuple emission. Partition files are byte-identical either way.
  bool streamed_map = true;
  /// Run the reduce phase's streamed pipeline: async window prefetch,
  /// double-buffered bound kernels, and host greedy insertion deferred one
  /// window behind the device. The graph's edge set is identical either
  /// way.
  bool streamed_reduce = true;
  /// Kernel backend for the three hot kernels (fingerprint generation,
  /// match bounds, radix sort): "simulated" (default — the modeled-clock
  /// device), "scalar", "avx2", or "host"/"auto" (fastest available host
  /// path). Contigs are byte-identical with every backend; like the
  /// streamed_* flags the choice is excluded from the checkpoint config
  /// hash, so checkpoints interchange between backends.
  std::string kernel_backend = "simulated";
  /// When set, the greedy string graph is also written here as GFA 1.0
  /// (for Bandage and other graph tooling).
  std::filesystem::path gfa_output;
};

/// Per-run mutable context threaded through the phases. The distributed
/// driver creates one per node (private disk + device); the single-node
/// pipeline creates exactly one.
struct Workspace {
  gpu::Device* device = nullptr;
  util::MemoryTracker* host = nullptr;  ///< host working-memory tracker
  io::IoStats* io = nullptr;            ///< this node's disk counters
  std::filesystem::path dir;            ///< this node's private storage
  /// Checkpoint/restart manager, or nullptr when checkpointing is off
  /// (verify mode, the distributed driver's per-node workspaces).
  CheckpointManager* checkpoint = nullptr;
};

/// On-disk record emitted by the map phase: a 128-bit fingerprint plus the
/// source vertex (read/strand). 24 bytes (the paper's 20-byte tuple plus
/// alignment padding).
struct FpRecord {
  gpu::Key128 fp;
  std::uint32_t vertex = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(FpRecord) == 24);

/// Derived streaming geometry.
struct BlockGeometry {
  std::uint64_t host_block_records = 0;    ///< m_h in records
  std::uint64_t device_block_records = 0;  ///< m_d in records
  /// Streamed execution of the sort phase: prefetch/drain disk blocks on
  /// background threads and double-buffer device chunks across two modeled
  /// streams. The false (synchronous) path produces byte-identical output
  /// with a strictly serial modeled timeline — keep it for comparisons.
  bool streamed = false;

  /// m_h from the host budget: half of host memory is one sort block (the
  /// rest is double-buffering and pipeline overhead). m_d from the device
  /// budget: the device sort needs input + double buffer (2x) plus
  /// staging, hence the divisor 4; see gpu::charge_sort_pairs.
  static BlockGeometry from(const MachineConfig& machine);
};

inline BlockGeometry BlockGeometry::from(const MachineConfig& machine) {
  BlockGeometry g;
  g.host_block_records = std::max<std::uint64_t>(
      16, static_cast<std::uint64_t>(0.5 * machine.host_memory_bytes) /
              sizeof(FpRecord));
  g.device_block_records = std::max<std::uint64_t>(
      16, machine.device_memory_bytes / (4 * sizeof(FpRecord)));
  return g;
}

}  // namespace lasagna::core
