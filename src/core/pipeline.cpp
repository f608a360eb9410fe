#include "core/pipeline.hpp"

#include <cstdio>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/phase_ledger.hpp"
#include "graph/gfa.hpp"
#include "graph/transitive.hpp"
#include "io/partition.hpp"
#include "kernel/backend.hpp"
#include "obs/metrics.hpp"
#include "seq/read_store.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::core {

namespace {

/// One single-node phase: snapshots the workspace's disk bytes and device
/// clock and restarts its memory peaks at open; at close turns the deltas
/// into the node's device, disk and host lanes and closes the ledger with
/// them as a one-node run. Overlapped phases (the streamed map/sort/reduce)
/// run disk I/O, device work and the host stage concurrently, so their
/// modeled time is max(device, disk, host) instead of the serial sum.
class PhaseScope {
 public:
  PhaseScope(std::string name, Workspace& ws, const MachineConfig& machine,
             util::RunStats& stats, double extra_input_bytes = 0.0,
             bool overlapped = false)
      : ledger_(std::move(name), stats, kRows),
        ws_(ws),
        machine_(machine),
        extra_input_bytes_(extra_input_bytes),
        overlapped_(overlapped),
        io_before_(ws.io->snapshot()),
        device_before_(ws.device->modeled_seconds()) {
    ws.host->reset_peak();
    ws.device->memory().reset_peak();
  }

  /// The phase was restored from a checkpoint rather than executed: it
  /// re-streams no input and has nothing to overlap.
  void mark_resumed() {
    ledger_.phase.resumed = true;
    overlapped_ = false;
    extra_input_bytes_ = 0.0;
  }

  /// Report the bytes the phase pushed through its host stage (tuple
  /// emission, greedy edge insertion); they are charged at the machine's
  /// modeled host bandwidth, which — like disk bandwidth — is already
  /// expressed in full-size-world units.
  void set_host_bytes(std::uint64_t bytes) { host_bytes_ = bytes; }

  ~PhaseScope() {
    util::PhaseStats& phase = ledger_.phase;
    const auto io_after = ws_.io->snapshot();
    phase.disk_bytes_read =
        io_after.bytes_read - io_before_.bytes_read +
        static_cast<std::uint64_t>(extra_input_bytes_);
    phase.disk_bytes_written =
        io_after.bytes_written - io_before_.bytes_written;
    phase.peak_host_bytes = ws_.host->peak();
    phase.peak_device_bytes = ws_.device->memory().peak();
    util::NodePhaseBreakdown lanes;
    // Device kernels process scaled data at real GPU rates; multiplying by
    // time_scale expresses them in the same full-size-world units as the
    // (bandwidth-scaled) disk time.
    lanes.device_seconds =
        (ws_.device->modeled_seconds() - device_before_) *
        machine_.time_scale;
    lanes.disk_seconds =
        static_cast<double>(phase.disk_bytes_read +
                            phase.disk_bytes_written) /
        machine_.disk_bandwidth_bytes_per_sec;
    lanes.host_seconds = static_cast<double>(host_bytes_) /
                         machine_.host_bandwidth_bytes_per_sec;
    const LanePrice price = price_lanes({&lanes, 1}, overlapped_, phase.name);
    phase.device_seconds = price.device;
    phase.disk_seconds = price.disk;
    phase.host_seconds = price.host;
    phase.modeled_seconds = price.modeled;
    ledger_.close({&lanes, 1}, price.device + price.disk + price.host,
                  overlapped_);
  }

 private:
  inline static const PhaseRows kRows{"phases", {"lane."}};

  PhaseLedger ledger_;
  Workspace& ws_;
  const MachineConfig& machine_;
  double extra_input_bytes_;
  bool overlapped_;
  std::uint64_t host_bytes_ = 0;
  io::IoStats::Snapshot io_before_;
  double device_before_;
};

// ---- checkpoint key helpers (zero-padded so lexicographic == numeric) ----

std::string load_key(std::size_t file_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "load:file:%05zu", file_index);
  return buf;
}

std::string map_key(const char* role, unsigned length) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "map:%s:%05u", role, length);
  return buf;
}

bool file_has_size(const std::filesystem::path& path, std::uint64_t size) {
  std::error_code ec;
  const std::uintmax_t actual = std::filesystem::file_size(path, ec);
  return !ec && actual == size;
}

// ---- map phase restore ---------------------------------------------------

/// Restore a recorded map phase into `map`. Every recorded partition must
/// be intact on disk or already consumed by a *finished* sort of it (its
/// `sort:file` entry exists — the records live in the sorted output), and
/// the read-length sidecar must hold one length per read.
bool restore_map(Workspace& ws, const CheckpointManager& cm, MapResult& map) {
  if (!cm.has("phase:map")) return false;
  const std::filesystem::path map_dir = ws.dir / "map";
  std::map<unsigned, std::uint64_t> counts[2];  // [sfx, pfx]
  for (const char* role : {"sfx", "pfx"}) {
    const std::string prefix = std::string("map:") + role + ":";
    for (const auto& [number, key] : cm.numbered_keys(prefix)) {
      const auto length = static_cast<unsigned>(number);
      const std::uint64_t records = cm.counter(key, "records");
      const auto file = map_dir / io::partition_file_name(role, length, "bin");
      if (!file_has_size(file, records * sizeof(FpRecord)) &&
          !cm.has("sort:file:" +
                  io::partition_file_name(role, length, "sorted"))) {
        return false;  // partition lost before its sort
      }
      counts[role[0] == 's' ? 0 : 1][length] = records;
    }
  }
  auto lengths = cm.load<std::uint16_t>("read_lengths.bin");
  const std::uint64_t read_count = cm.counter("phase:map", "read_count");
  if (!lengths.has_value() || lengths->size() != read_count) return false;

  map.read_count = static_cast<std::uint32_t>(read_count);
  map.total_bases = cm.counter("phase:map", "total_bases");
  map.tuples_emitted = cm.counter("phase:map", "tuples_emitted");
  map.max_read_length =
      static_cast<unsigned>(cm.counter("phase:map", "max_read_length"));
  map.read_lengths = std::move(*lengths);
  map.suffixes = std::make_unique<io::PartitionSet<FpRecord>>(
      map_dir, "sfx", *ws.io);
  map.suffixes->restore_finalized(counts[0]);
  map.prefixes = std::make_unique<io::PartitionSet<FpRecord>>(
      map_dir, "pfx", *ws.io);
  map.prefixes->restore_finalized(counts[1]);
  return true;
}

void record_map_checkpoint(CheckpointManager& cm, const MapResult& map) {
  cm.save<std::uint16_t>("read_lengths.bin", map.read_lengths);
  for (unsigned length : map.suffixes->lengths()) {
    cm.record(map_key("sfx", length),
              {{"records", map.suffixes->count(length)}});
  }
  for (unsigned length : map.prefixes->lengths()) {
    cm.record(map_key("pfx", length),
              {{"records", map.prefixes->count(length)}});
  }
  cm.record("phase:map", {{"read_count", map.read_count},
                          {"total_bases", map.total_bases},
                          {"tuples_emitted", map.tuples_emitted},
                          {"max_read_length", map.max_read_length}});
}

// ---- graph sidecars --------------------------------------------------------

/// The string graph saved as sidecar `name`, or null when it does not load.
std::unique_ptr<graph::StringGraph> load_graph(const CheckpointManager& cm,
                                               const std::string& name,
                                               std::uint32_t read_count) {
  const auto edges = cm.load<graph::Edge>(name);
  if (!edges.has_value()) return nullptr;
  auto graph = std::make_unique<graph::StringGraph>(read_count);
  graph->import_edges(*edges);
  return graph;
}

std::unique_ptr<graph::FullStringGraph> new_full_graph(const MapResult& map) {
  const std::vector<std::uint32_t> lengths32(map.read_lengths.begin(),
                                             map.read_lengths.end());
  return std::make_unique<graph::FullStringGraph>(map.read_count, lengths32);
}

}  // namespace

Assembler::Assembler(AssemblyConfig config) : config_(std::move(config)) {}

AssemblyResult Assembler::run(const std::filesystem::path& fastq,
                              const std::filesystem::path& output_fasta) {
  return run(std::vector<std::filesystem::path>{fastq}, output_fasta);
}

AssemblyResult Assembler::run(
    const std::vector<std::filesystem::path>& fastqs,
    const std::filesystem::path& output_fasta) {
  AssemblyResult result;

  device_ = std::make_unique<gpu::Device>(
      config_.machine.gpu_profile, config_.machine.device_memory_bytes);
  // Route the hot kernels (fingerprint / match bounds / radix sort)
  // through the configured backend for the whole run; logs one line with
  // the selection and detected CPU features.
  kernel::ScopedBackend kernel_scope(
      kernel::resolve_backend(config_.kernel_backend));
  util::MemoryTracker host_tracker("host", 0);
  io::IoStats io_stats;

  std::optional<io::ScopedTempDir> temp;
  std::filesystem::path work = config_.work_dir;
  if (work.empty()) {
    temp.emplace("lasagna-run");
    work = temp->path();
  } else {
    std::filesystem::create_directories(work);
  }

  Workspace ws{device_.get(), &host_tracker, &io_stats, work};

  // Checkpointing needs a persistent workspace, and verify mode pins the
  // packed reads in memory — state a restart cannot restore.
  std::unique_ptr<CheckpointManager> checkpoint;
  bool resumable = false;
  if (!config_.work_dir.empty() && !config_.verify_overlaps) {
    checkpoint = std::make_unique<CheckpointManager>(
        work, CheckpointManager::fingerprint_inputs(fastqs),
        hash_assembly_config(config_), io_stats);
    resumable = config_.resume && checkpoint->load({"map:sfx:", "map:pfx:"});
    if (!resumable) checkpoint->reset();
    ws.checkpoint = checkpoint.get();
  }
  CheckpointManager* cm = checkpoint.get();

  double fastq_bytes = 0.0;
  for (const auto& f : fastqs) {
    fastq_bytes += static_cast<double>(std::filesystem::file_size(f));
  }

  // ---- Load: one pass over the input to validate it and (in verify mode)
  // pin the packed reads in host memory. Checkpointed per input file, so a
  // resumed run only re-streams files the crashed run never finished.
  std::optional<seq::PackedReads> packed;
  {
    std::vector<bool> file_done(fastqs.size(), false);
    double pending_bytes = 0.0;
    for (std::size_t i = 0; i < fastqs.size(); ++i) {
      if (resumable && cm->has(load_key(i))) {
        file_done[i] = true;
      } else {
        pending_bytes +=
            static_cast<double>(std::filesystem::file_size(fastqs[i]));
      }
    }

    PhaseScope scope("load", ws, config_.machine, result.stats,
                     pending_bytes);
    if (config_.verify_overlaps) {
      packed.emplace(seq::PackedReads::from_files(fastqs));
      host_tracker.allocate(packed->memory_bytes());
    } else {
      std::uint64_t reads = 0;
      bool any_skipped = false;
      for (std::size_t i = 0; i < fastqs.size(); ++i) {
        if (file_done[i]) {
          reads += cm->counter(load_key(i), "reads");
          any_skipped = true;
          continue;
        }
        seq::ReadBatchStream stream(fastqs[i], 1 << 20);
        seq::ReadBatch batch;
        while (stream.next(batch)) {
        }
        reads += stream.reads_seen();
        if (cm != nullptr) {
          cm->record(load_key(i), {{"reads", stream.reads_seen()}});
        }
      }
      result.read_count = static_cast<std::uint32_t>(reads);
      if (any_skipped && pending_bytes == 0.0) scope.mark_resumed();
    }
  }

  // ---- Map.
  MapOptions map_options;
  map_options.min_overlap = config_.min_overlap;
  map_options.fingerprints = config_.fingerprints;
  map_options.streamed = config_.streamed_map;
  MapResult map;
  {
    PhaseScope scope("map", ws, config_.machine, result.stats, fastq_bytes,
                     /*overlapped=*/config_.streamed_map);
    if (resumable && restore_map(ws, *cm, map)) {
      scope.mark_resumed();
    } else {
      map = run_map_phase(ws, fastqs, map_options);
      scope.set_host_bytes(map.host_bytes);
      if (cm != nullptr) record_map_checkpoint(*cm, map);
    }
  }
  result.read_count = map.read_count;
  result.total_bases = map.total_bases;
  result.tuples_emitted = map.tuples_emitted;

  // ---- Sort. Resumes per file (and per level-1 run) from its own
  // checkpoint entries.
  BlockGeometry geometry = BlockGeometry::from(config_.machine);
  geometry.streamed = config_.streamed_sort;
  SortResult sorted;
  {
    PhaseScope scope("sort", ws, config_.machine, result.stats,
                     /*extra_input_bytes=*/0.0,
                     /*overlapped=*/config_.streamed_sort);
    sorted = run_sort_phase(ws, map, geometry);
    if (sorted.resumed) scope.mark_resumed();
  }
  result.records_sorted = sorted.records_sorted;
  result.sort_disk_passes = sorted.max_disk_passes;

  // ---- Reduce. Greedy mode checkpoints the greedy graph (graph.bin).
  // Reduced mode checkpoints the *full* overlap graph after the scan
  // (full_graph.bin) and the unitig graph after the reduction phase
  // (reduced_graph.bin), which restores both phases.
  const bool reduced_mode = config_.graph == GraphMode::kReduced;
  ReduceOptions reduce_options;
  reduce_options.verify_overlaps = config_.verify_overlaps;
  reduce_options.reads = packed.has_value() ? &*packed : nullptr;
  reduce_options.streamed = config_.streamed_reduce;
  ReduceResult reduced;
  std::unique_ptr<graph::FullStringGraph> full;  // reduced graph mode only
  bool reduction_restored = false;
  {
    PhaseScope scope("reduce", ws, config_.machine, result.stats,
                     /*extra_input_bytes=*/0.0,
                     /*overlapped=*/config_.streamed_reduce);
    if (resumable && cm->has("phase:reduce")) {
      if (!reduced_mode) {
        reduced.graph = load_graph(*cm, "graph.bin", map.read_count);
      } else {
        if (cm->has("phase:reduction")) {
          reduced.graph =
              load_graph(*cm, "reduced_graph.bin", map.read_count);
        }
        reduction_restored = reduced.graph != nullptr;
        if (!reduction_restored) {
          if (auto edges = cm->load<graph::Edge>("full_graph.bin")) {
            full = new_full_graph(map);
            full->import_edges(*edges);
          }
        }
      }
    }
    if (reduced.graph != nullptr || full != nullptr) {
      reduced.candidate_edges = cm->counter("phase:reduce", "candidate_edges");
      reduced.accepted_edges = cm->counter("phase:reduce", "accepted_edges");
      reduced.false_positives =
          cm->counter("phase:reduce", "false_positives");
      scope.mark_resumed();
    } else {
      if (reduced_mode) {
        // Full-graph collection: the scan delivers every candidate through
        // the sink (canonical offer order) into the full string graph
        // instead of the greedy insertion; the blocked transitive reduction
        // and the unitig walk run as their own phase below.
        full = new_full_graph(map);
        reduce_options.candidate_sink =
            [&full](graph::VertexId u, graph::VertexId v,
                    std::uint16_t overlap,
                    const gpu::Key128&) { full->add_edge(u, v, overlap); };
      }
      reduced = run_reduce_phase(ws, sorted, map.read_count, reduce_options);
      scope.set_host_bytes(reduced.host_bytes);
      if (cm != nullptr) {
        cm->save<graph::Edge>(
            reduced_mode ? "full_graph.bin" : "graph.bin",
            reduced_mode ? full->all_edges() : reduced.graph->edges());
        cm->record("phase:reduce",
                   {{"candidate_edges", reduced.candidate_edges},
                    {"accepted_edges", reduced.accepted_edges},
                    {"false_positives", reduced.false_positives},
                    {"full_edges", reduced_mode ? full->edge_count() : 0}});
      }
    }
  }
  // ---- Reduction (reduced graph mode only): blocked parallel Myers
  // transitive reduction over the full overlap graph, then the unitig walk
  // that keeps the unambiguous chain links. Deterministic at any thread
  // count/block size, so the contigs are byte-identical to a sequential
  // reduction (and to the distributed per-owner reduction).
  if (reduced_mode) {
    PhaseScope scope("reduction", ws, config_.machine, result.stats);
    if (reduction_restored) {
      result.full_edges = cm->counter("phase:reduce", "full_edges");
      result.transitive_removed =
          cm->counter("phase:reduction", "removed_edges");
      scope.mark_resumed();
    } else {
      result.full_edges = full->edge_count();
      result.transitive_removed =
          full->reduce_parallel(util::ThreadPool::global());
      reduced.graph = std::make_unique<graph::StringGraph>(map.read_count);
      reduced.graph->import_edges(full->to_unitig_graph().edges());
      // The mark pass streams every adjacency list once for itself and
      // once per incoming middle-hop visit; charge two passes over the
      // edge array as the host-lane cost of the scan.
      scope.set_host_bytes(result.full_edges * 2 * sizeof(graph::Edge));
      auto& registry = obs::MetricsRegistry::global();
      registry.counter("graph.reduce.full_edges")
          .add(static_cast<std::int64_t>(result.full_edges));
      registry.counter("graph.reduce.removed_edges")
          .add(static_cast<std::int64_t>(result.transitive_removed));
      registry.counter("graph.reduce.unitig_edges")
          .add(static_cast<std::int64_t>(reduced.graph->edge_count()));
      if (cm != nullptr) {
        cm->save<graph::Edge>("reduced_graph.bin", reduced.graph->edges());
        cm->record("phase:reduction",
                   {{"removed_edges", result.transitive_removed}});
      }
    }
    reduced.accepted_edges = reduced.graph->edge_count() / 2;
    full.reset();
  }

  result.candidate_edges = reduced.candidate_edges;
  result.accepted_edges = reduced.accepted_edges;
  result.false_positives = reduced.false_positives;
  result.graph_edges = reduced.graph->edge_count();

  if (!config_.gfa_output.empty()) {
    graph::GfaOptions gfa_options;
    gfa_options.read_length = [&map](graph::ReadId r) {
      return static_cast<std::uint32_t>(map.read_lengths[r]);
    };
    gfa_options.skip_isolated_segments = !config_.include_singletons;
    graph::write_gfa_file(config_.gfa_output, *reduced.graph, gfa_options);
  }

  // ---- Compress. Never skipped: the contig file is the run's product and
  // is (re)written atomically, so re-running is always safe and cheap
  // relative to the phases above.
  CompressOptions compress_options;
  compress_options.include_singletons = config_.include_singletons;
  compress_options.min_contig_length = config_.min_contig_length;
  compress_options.read_lengths = std::move(map.read_lengths);
  CompressResult compressed;
  {
    PhaseScope scope("compress", ws, config_.machine, result.stats,
                     fastq_bytes);  // one re-stream (placement pass)
    compressed = run_compress_phase(ws, *reduced.graph, fastqs,
                                    output_fasta, compress_options);
  }
  result.paths = compressed.paths;
  result.contigs = compressed.stats;

  result.phases_resumed = result.stats.resumed_phase_count();
  if (result.phases_resumed > 0) {
    LOG_INFO << "resume: " << result.phases_resumed
             << " phase(s) restored from checkpoint in " << work.string();
  }

  if (packed.has_value()) host_tracker.release(packed->memory_bytes());
  return result;
}

}  // namespace lasagna::core
