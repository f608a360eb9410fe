#include "dist/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/map_phase.hpp"
#include "core/sort_phase.hpp"
#include "dist/active_message.hpp"
#include "dist/cluster_run.hpp"
#include "dist/codec.hpp"
#include "dist/fnv.hpp"
#include "dist/shuffle_ingest.hpp"
#include "dist/topology.hpp"
#include "io/fault_injector.hpp"
#include "io/file_stream.hpp"
#include "io/tempdir.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "seq/read_store.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace lasagna::dist {
namespace detail {
namespace {

/// Combine the two per-role content chains of one key into the value
/// stored in NodeContext::merged_hash. Per-role chains (each seeded
/// fnv::kOffset) are what the fused ingest can compute online — suffix and
/// prefix bytes interleave on the wire — so the staged path folds the same
/// way and the two stay comparable.
std::uint64_t combine_role_hashes(std::uint64_t h_sfx, std::uint64_t h_pfx) {
  return fnv::fold_u64(fnv::fold_u64(fnv::kOffset, h_sfx), h_pfx);
}

/// The link model actually used: explicit topology fields win, zero fields
/// inherit the legacy flat scalars and the machine's NIC cap.
ClusterTopology effective_topology(const ClusterConfig& config) {
  ClusterTopology t = config.topology;
  if (t.link_bandwidth_bytes_per_sec <= 0.0) {
    t.link_bandwidth_bytes_per_sec = config.network_bandwidth_bytes_per_sec;
  }
  if (t.latency_seconds <= 0.0) {
    t.latency_seconds = config.network_latency_seconds;
  }
  if (t.nic_bandwidth_bytes_per_sec <= 0.0) {
    t.nic_bandwidth_bytes_per_sec =
        config.machine.nic_bandwidth_bytes_per_sec;
  }
  return t;
}

/// Parameters that shape per-node intermediate files and work division:
/// the single-node hash over the fields both configs share, plus the node
/// count. The reduce strategy and `streamed` are deliberately absent —
/// every strategy and both paths produce identical per-node files, so
/// their checkpoints interchange.
std::uint64_t hash_cluster_config(const ClusterConfig& config) {
  core::AssemblyConfig shared;
  shared.machine = config.machine;
  shared.min_overlap = config.min_overlap;
  shared.fingerprints = config.fingerprints;
  shared.include_singletons = config.include_singletons;
  shared.graph = config.graph;
  return fnv::fold_u64(core::hash_assembly_config(shared), config.node_count);
}

// ---- checkpoint keys (zero-padded: lexicographic == numeric order) -------

std::string block_key(std::uint64_t block) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "map:block:%05llu",
                static_cast<unsigned long long>(block));
  return buf;
}

std::string shuffle_ck_key(unsigned key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shuffle:key:%08u", key);
  return buf;
}

/// A node's partition file name for one role ("sfx"/"pfx") and key, e.g.
/// "sfx_00042.sorted"; the sort checkpoints record sorted files by it.
std::string partition_file(const char* role, unsigned key, const char* ext) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s_%05u.%s", role, key, ext);
  return buf;
}

/// Header of one pushed shuffle chunk. The chunk's tuple bytes follow.
struct PushHeader {
  std::uint8_t role = 0;  // 0 = sfx, 1 = pfx
  std::uint8_t pad[3] = {};
  std::uint32_t key = 0;
  std::uint32_t block = 0;   // global input-block id
  std::uint64_t offset = 0;  // byte offset within the (key, block) stage
};

// ---- phase boundaries ----------------------------------------------------

/// Global-registry marks taken at a phase start; `finish` fills the
/// fault/metric deltas of a PhaseStats the way core::PhaseScope does.
struct MetricsMark {
  obs::MetricsRegistry::Snapshot counters;
  std::int64_t injected = 0;
  std::int64_t retried = 0;
  std::int64_t fatal = 0;

  static MetricsMark take() {
    auto& r = obs::MetricsRegistry::global();
    MetricsMark m;
    m.counters = r.counters_snapshot();
    m.injected = r.value("io.faults_injected");
    m.retried = r.value("io.faults_retried");
    m.fatal = r.value("io.faults_fatal");
    return m;
  }

  void finish(util::PhaseStats& phase) const {
    auto& r = obs::MetricsRegistry::global();
    phase.faults_injected =
        static_cast<std::uint64_t>(r.value("io.faults_injected") - injected);
    phase.faults_retried =
        static_cast<std::uint64_t>(r.value("io.faults_retried") - retried);
    phase.faults_fatal =
        static_cast<std::uint64_t>(r.value("io.faults_fatal") - fatal);
    phase.metrics = obs::snapshot_delta(counters, r.counters_snapshot());
  }
};

/// Emit the phase's modeled spans: one cluster-level span plus per-node
/// lane spans ("dist.node<k>.{device,disk,host,network}"). Streamed phases
/// run all lanes from the phase start; synchronous phases chain them — the
/// trace shows what the overlap model summarizes.
void trace_cluster_phase(double base_seconds, const util::PhaseStats& phase,
                         const std::vector<NodePhaseBreakdown>& nodes,
                         bool streamed) {
  obs::Tracer* tracer = obs::Tracer::active();
  obs::Profiler* prof = obs::Profiler::active();
  if (tracer == nullptr && prof == nullptr) return;
  const std::int64_t base = to_ps(base_seconds);
  if (tracer != nullptr) {
    tracer->add_span(tracer->track("dist.cluster"), phase.name, -1, 0, base,
                     to_ps(phase.modeled_seconds),
                     {{"resumed", phase.resumed ? 1 : 0},
                      {"nodes", static_cast<std::int64_t>(nodes.size())}});
  }
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const NodePhaseBreakdown& b = nodes[k];
    const std::pair<const char*, double> lanes[] = {
        {"device", b.device_seconds},
        {"disk", b.disk_seconds},
        {"host", b.host_seconds},
        {"network", b.network_seconds}};
    std::int64_t cursor = base;
    for (const auto& [lane, seconds] : lanes) {
      if (seconds <= 0.0) continue;
      if (tracer != nullptr) {
        tracer->add_span(
            tracer->track("dist.node" + std::to_string(k) + "." + lane),
            phase.name, -1, 0, streamed ? base : cursor, to_ps(seconds));
      }
      // Mirror each lane span as a weighted (non-chain) node of the
      // causal graph — context the merged trace renders per node.
      if (prof != nullptr) {
        prof->span(static_cast<int>(k), lane, "lane",
                   streamed ? base : cursor, to_ps(seconds));
      }
      if (!streamed) cursor += to_ps(seconds);
    }
  }
  // The phase's accounting appended its chain segments before calling
  // here; the modeled total is final, so the phase can close.
  if (prof != nullptr) prof->end_phase(to_ps(phase.modeled_seconds));
}

/// One open phase: the stats and per-node lanes its function fills in,
/// plus the wall timer and registry marks taken when it began.
struct PhaseScope {
  util::PhaseStats phase;
  std::vector<NodePhaseBreakdown> nodes;
  util::WallTimer wall;
  MetricsMark marks = MetricsMark::take();
};

PhaseScope begin_phase(ClusterRun& run, const char* name) {
  if (obs::Profiler* prof = obs::Profiler::active()) {
    prof->begin_phase(name, to_ps(run.clock));
  }
  PhaseScope scope;
  scope.phase.name = name;
  scope.nodes.resize(run.config.node_count);
  return scope;
}

/// Close a phase whose function set its modeled/lane seconds, `resumed`
/// flag, per-node breakdown and critical-path chain: add every node's
/// `io` bytes and memory peaks, derive the overlap efficiency as
/// `lane_work` over the modeled span, emit the trace, advance the cluster
/// clock, record the stats, and start every node's next phase.
void end_phase(ClusterRun& run, PhaseScope& scope, double lane_work,
               bool streamed) {
  util::PhaseStats& phase = scope.phase;
  phase.wall_seconds = scope.wall.seconds();
  for (auto& node : run.nodes) {
    const NodeLanes l = node.lanes();
    phase.disk_bytes_read += l.bytes_read;
    phase.disk_bytes_written += l.bytes_written;
    phase.peak_host_bytes = std::max(phase.peak_host_bytes, node.host.peak());
    phase.peak_device_bytes =
        std::max(phase.peak_device_bytes, node.device->memory().peak());
  }
  phase.overlap_efficiency = phase.modeled_seconds > 0.0
                                 ? lane_work / phase.modeled_seconds
                                 : 1.0;
  if (phase.resumed) ++run.result.phases_resumed;
  scope.marks.finish(phase);
  trace_cluster_phase(run.clock, phase, scope.nodes, streamed);
  run.clock += phase.modeled_seconds;
  run.result.stats.add(std::move(phase));
  run.result.per_node.push_back(std::move(scope.nodes));

  run.net.reset_counters();
  for (auto& node : run.nodes) {
    node.sample_dir();
    node.mark();
    node.host.reset_peak();
    node.device->memory().reset_peak();
  }
}

// ---- map (with overlapped push shuffle) ------------------------------------

/// The master's input-block dispenser. Blocks a previous (crashed) run
/// already mapped and pushed, according to any node's manifest, are
/// skipped, which rebalances the unfinished blocks across live nodes.
struct BlockDispenser {
  std::mutex mutex;
  std::uint64_t blocks = 0;
  std::uint64_t next = 0;
  std::vector<std::uint64_t> per_node;  ///< static round-robin cursors
  std::set<std::uint64_t> done;

  /// The next block for mapper `src`, or nullopt when none remain.
  std::optional<std::uint64_t> take(unsigned src, unsigned stride) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!per_node.empty()) {
      // Static round-robin: mapper `src` owns blocks src, src+N, ...
      // (minus checkpointed ones) regardless of request order.
      std::uint64_t& cursor = per_node[src];
      while (cursor < blocks && done.count(cursor) > 0) cursor += stride;
      if (cursor >= blocks) return std::nullopt;
      const std::uint64_t g = cursor;
      cursor += stride;
      return g;
    }
    while (next < blocks && done.count(next) > 0) ++next;
    if (next >= blocks) return std::nullopt;
    return next++;
  }
};

/// Owners consume pushed chunks: fused runs feed them straight into
/// sort-run formation (ShuffleIngest); staged runs persist them into
/// per-(role, key, block) stage files. offset 0 truncates, so a re-pushed
/// block (crash recovery) is idempotent even when a different node re-maps
/// it.
void register_push_handlers(ClusterRun& run) {
  for (auto& node : run.nodes) {
    const std::filesystem::path stage_dir = node.dir / "shuffle";
    std::filesystem::create_directories(stage_dir);
    if (run.fused) {
      // Ingest disk traffic (run writes) belongs to the shuffle lane; its
      // block sorts share the owner's device with map kernels.
      core::Workspace ingest_ws = node.ws;
      ingest_ws.io = &node.shuffle_io;
      ingest_ws.checkpoint = nullptr;
      node.ingest = std::make_unique<ShuffleIngest>(
          ingest_ws, run.geometry, node.dir / "sorted", &node.device_mutex);
      run.net.register_handler(
          node.id, kBlockDone,
          [&node](unsigned, std::span<const std::byte> payload) {
            std::size_t off = 0;
            node.ingest->block_done(get<std::uint32_t>(payload, off));
            return Payload{};
          });
    }
    run.net.register_handler(
        node.id, kPushChunk,
        [&node, stage_dir, fused = run.fused](
            unsigned src, std::span<const std::byte> payload) {
          std::size_t off = 0;
          const auto hdr = get<PushHeader>(payload, off);
          std::vector<std::byte> logical =
              codec::decode_chunk(payload.subspan(off));
          if (src != node.id &&
              codec::method(payload.subspan(off)) != codec::Method::kRaw) {
            node.codec_bytes.fetch_add(logical.size(),
                                       std::memory_order_relaxed);
          }
          if (fused) {
            node.ingest->deliver(hdr.role, hdr.key, hdr.block,
                                 std::move(logical));
            return Payload{};
          }
          char name[64];
          std::snprintf(name, sizeof(name), "stage_%s_%05u_%06u",
                        hdr.role == 0 ? "sfx" : "pfx", hdr.key, hdr.block);
          const std::filesystem::path path = stage_dir / name;
          std::FILE* f =
              std::fopen(path.c_str(), hdr.offset == 0 ? "wb" : "ab");
          if (f == nullptr) {
            throw std::runtime_error("shuffle stage open failed: " +
                                     path.string());
          }
          const std::size_t n = logical.size();
          if (n > 0 && std::fwrite(logical.data(), 1, n, f) != n) {
            std::fclose(f);
            throw std::runtime_error("shuffle stage write failed: " +
                                     path.string());
          }
          std::fclose(f);
          if (n > 0) node.shuffle_io.add_write(n);
          return Payload{};
        });
  }
}

/// Push one mapped partition file of block `block` to the key's owner in
/// chunked active messages.
void push_partition_file(ClusterRun& run, NodeContext& node,
                         std::uint8_t role, unsigned key, std::uint64_t block,
                         const std::filesystem::path& file) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& c_chunks = registry.counter("dist.shuffle.chunks");
  obs::Counter& c_stage_bytes = registry.counter("dist.shuffle.stage_bytes");
  obs::Counter& c_wire_bytes = registry.counter("dist.shuffle.wire_bytes");
  obs::Counter& c_logical_bytes =
      registry.counter("dist.shuffle.logical_bytes");
  const bool compress = run.config.compress_wire;
  const unsigned owner = owner_of(key, run.config.node_count);
  io::ReadOnlyStream in(file, node.shuffle_io);
  std::vector<std::byte> buffer(kShuffleChunkBytes);
  std::uint64_t offset = 0;
  for (;;) {
    const std::size_t n = in.read_bytes(buffer);
    if (n == 0 && offset > 0) break;
    PushHeader hdr;
    hdr.role = role;
    hdr.key = key;
    hdr.block = static_cast<std::uint32_t>(block);
    hdr.offset = offset;
    const std::span<const std::byte> chunk(buffer.data(), n);
    const std::size_t phase =
        static_cast<std::size_t>(offset % sizeof(core::FpRecord));
    // Self-pushes never hit the wire; only remote chunks pay the encode
    // cost and earn the compression.
    const std::vector<std::byte> body =
        (owner != node.id && compress) ? codec::encode_chunk(chunk, phase)
                                       : codec::encode_raw(chunk);
    Payload payload;
    payload.reserve(sizeof(hdr) + body.size());
    put(payload, hdr);
    payload.insert(payload.end(), body.begin(), body.end());
    (void)run.net.request(node.id, owner, kPushChunk, payload);
    c_chunks.add(1);
    c_stage_bytes.add(static_cast<std::int64_t>(n));
    if (owner != node.id) {
      if (compress) node.codec_bytes.fetch_add(n, std::memory_order_relaxed);
      c_logical_bytes.add(static_cast<std::int64_t>(n));
      // Uncompressed chunks report their logical size: the codec tag is
      // framing, not traffic, and keeping raw runs at ratio exactly 1.0
      // makes the counter self-describing.
      c_wire_bytes.add(
          static_cast<std::int64_t>(compress ? body.size() : n));
    }
    offset += n;
    if (n < buffer.size()) break;
  }
}

/// One mapper: request blocks from the master until none remain,
/// fingerprint each into local partitions and push them to their owners.
void map_blocks(ClusterRun& run, NodeContext& node,
                std::atomic<std::uint64_t>& fresh) {
  const ClusterConfig& config = run.config;
  obs::Counter& c_blocks =
      obs::MetricsRegistry::global().counter("dist.map.blocks");
  io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
  for (;;) {
    const Payload reply = run.net.request(node.id, 0, kGetBlock, {});
    if (reply.empty()) break;
    std::size_t off = 0;
    const auto g = get<std::uint64_t>(reply, off);
    const auto first = get<std::uint64_t>(reply, off);
    const auto count = get<std::uint64_t>(reply, off);

    if (io::FaultInjector* injector = io::FaultInjector::active()) {
      injector->on_node_op(node.id, block_key(g));
    }

    core::MapOptions options;
    options.min_overlap = config.min_overlap;
    options.fingerprints = config.fingerprints;
    options.first_read = first;
    options.max_reads = count;
    options.streamed = config.streamed;
    core::Workspace block_ws = node.ws;
    block_ws.dir = node.dir / ("block" + std::to_string(g));
    block_ws.checkpoint = nullptr;

    std::uint64_t tuples = 0;
    {
      const core::MapResult mapped = [&] {
        // Fused runs share each owner's device between map kernels and
        // ingest block sorts; hold our own device for the kernel burst so
        // a concurrent ingest sort cannot overcommit it.
        std::unique_lock<std::mutex> lock(node.device_mutex,
                                          std::defer_lock);
        if (run.fused) lock.lock();
        return core::run_map_phase(block_ws, run.fastq, options);
      }();
      node.host_bytes += mapped.host_bytes;
      tuples = mapped.tuples_emitted;
      for (const unsigned key : mapped.suffixes->lengths()) {
        push_partition_file(run, node, 0, key, g, mapped.suffixes->path(key));
      }
      for (const unsigned key : mapped.prefixes->lengths()) {
        push_partition_file(run, node, 1, key, g, mapped.prefixes->path(key));
      }
      if (run.fused) {
        // Every chunk of block g is delivered (synchronous AMs); tell all
        // owners so their ingest frontiers can advance.
        Payload done;
        put(done, static_cast<std::uint32_t>(g));
        for (unsigned i = 0; i < config.node_count; ++i) {
          (void)run.net.request(node.id, i, kBlockDone, done);
        }
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(block_ws.dir, ec);
    if (node.checkpoint != nullptr) {
      node.checkpoint->record(
          block_key(g),
          {{"first", first}, {"reads", count}, {"tuples", tuples}});
    }
    node.did_work = true;
    c_blocks.add(1);
    fresh.fetch_add(1, std::memory_order_relaxed);
  }
}

/// The master hands out input blocks on request; each node fingerprints
/// its blocks and pushes the resulting per-key tuples to their owners in
/// chunked active messages as each block completes — the shuffle's data
/// motion rides inside the map phase instead of a later barrier. Returns
/// every node's map-section lanes: the shuffle prices its overlapped data
/// motion against them.
std::vector<NodeLanes> map_phase(ClusterRun& run) {
  const ClusterConfig& config = run.config;
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& c_wire_bytes = registry.counter("dist.shuffle.wire_bytes");
  obs::Counter& c_logical_bytes =
      registry.counter("dist.shuffle.logical_bytes");
  const std::int64_t wire_mark = c_wire_bytes.value();
  const std::int64_t logical_mark = c_logical_bytes.value();
  PhaseScope scope = begin_phase(run, "map");

  const std::uint64_t read_count = run.result.read_count;
  const std::uint64_t block_reads =
      config.node_count == 1
          ? std::max<std::uint64_t>(1, read_count)
          : std::max<std::uint64_t>(
                1, (read_count + config.node_count * 2 - 1) /
                       (config.node_count * 2));
  BlockDispenser dispenser;
  dispenser.blocks = (read_count + block_reads - 1) / block_reads;
  for (auto& node : run.nodes) {
    if (node.checkpoint == nullptr) break;
    for (const std::string& key :
         node.checkpoint->keys_with_prefix("map:block:")) {
      dispenser.done.insert(std::stoull(key.substr(10)));
    }
  }
  if (config.static_map_blocks) {
    for (unsigned k = 0; k < config.node_count; ++k) {
      dispenser.per_node.push_back(k);
    }
  }
  run.net.register_handler(
      0, kGetBlock,
      [&dispenser, block_reads, stride = config.node_count, read_count](
          unsigned src, std::span<const std::byte>) {
        Payload reply;
        const std::optional<std::uint64_t> g = dispenser.take(src, stride);
        if (!g.has_value()) return reply;  // no more work
        put(reply, *g);
        put(reply, *g * block_reads);
        put(reply, std::min<std::uint64_t>(block_reads,
                                           read_count - *g * block_reads));
        return reply;
      });
  register_push_handlers(run);

  std::atomic<std::uint64_t> fresh{0};
  for_each_node(run.nodes,
                [&](NodeContext& node) { map_blocks(run, node, fresh); });
  const std::uint64_t fresh_blocks = fresh.load();
  if (run.fused) {
    // Map barrier fell: every chunk and completion marker is delivered.
    // Drain the ingest workers — their run writes and block sorts count as
    // map-section lane time, where they actually overlapped.
    for_each_node(run.nodes, [](NodeContext& node) {
      node.fused = node.ingest->finish();
      node.ingest.reset();
    });
  }

  util::PhaseStats& phase = scope.phase;
  std::vector<NodeLanes> lanes(config.node_count);
  double modeled_max = 0.0;
  double dev_max = 0.0, disk_max = 0.0, host_max = 0.0;
  unsigned modeled_arg = 0;  ///< node whose lanes bound the phase
  for (auto& node : run.nodes) {
    const NodeLanes& l = lanes[node.id] = node.lanes();
    const double node_modeled = config.streamed
                                    ? std::max({l.device, l.disk, l.host})
                                    : l.device + l.disk + l.host;
    if (node_modeled > modeled_max) modeled_arg = node.id;
    modeled_max = std::max(modeled_max, node_modeled);
    dev_max = std::max(dev_max, l.device);
    disk_max = std::max(disk_max, l.disk);
    host_max = std::max(host_max, l.host);
    scope.nodes[node.id] = {l.disk, l.device, l.host, 0.0};
  }

  // Reading the shared input is part of the map cost; a resumed run only
  // pays for the blocks it actually re-mapped.
  const double disk_bw = config.machine.disk_bandwidth_bytes_per_sec;
  const double input_factor =
      dispenser.blocks == 0 ? 0.0
                            : static_cast<double>(fresh_blocks) /
                                  static_cast<double>(dispenser.blocks);
  const double input_bytes = run.fastq_bytes * 2.0 * input_factor;
  phase.disk_bytes_read += static_cast<std::uint64_t>(input_bytes);
  phase.device_seconds = dev_max;
  phase.host_seconds = host_max;
  phase.disk_seconds = disk_max + input_bytes / config.node_count / disk_bw;
  phase.modeled_seconds =
      modeled_max + input_bytes / config.node_count / disk_bw;
  phase.resumed = fresh_blocks == 0 && dispenser.blocks > 0;
  if (obs::Profiler* prof = obs::Profiler::active()) {
    // modeled = shared-input read + the binding node's map lanes — record
    // the decomposition as the phase's chain.
    prof->chain(-1, "disk", "input-read",
                to_ps(input_bytes / config.node_count / disk_bw));
    const NodeLanes& ml = lanes[modeled_arg];
    const int mn = static_cast<int>(modeled_arg);
    if (config.streamed) {
      prof->chain(mn, dominant_lane(ml.device, ml.disk, ml.host), "map-scan",
                  to_ps(std::max({ml.device, ml.disk, ml.host})));
    } else {
      prof->chain(mn, "device", "map-scan", to_ps(ml.device));
      prof->chain(mn, "disk", "map-scan", to_ps(ml.disk));
      prof->chain(mn, "host", "map-scan", to_ps(ml.host));
    }
  }
  end_phase(run, scope,
            phase.device_seconds + phase.disk_seconds + phase.host_seconds,
            config.streamed);

  DistributedResult& result = run.result;
  result.wire_bytes =
      static_cast<std::uint64_t>(c_wire_bytes.value() - wire_mark);
  const std::uint64_t logical_pushed =
      static_cast<std::uint64_t>(c_logical_bytes.value() - logical_mark);
  result.compression_ratio =
      result.wire_bytes > 0 ? static_cast<double>(logical_pushed) /
                                  static_cast<double>(result.wire_bytes)
                            : 1.0;
  registry.gauge("dist.shuffle.compression_ratio_milli")
      .set_max(static_cast<std::int64_t>(result.compression_ratio * 1000.0));
  return lanes;
}

// ---- shuffle ---------------------------------------------------------------

/// Fused runs staged nothing: the ingest already turned every owned
/// partition into sorted runs. Adopt its per-key results — keys with no
/// suffix data can never produce candidates, so their prefix runs are
/// dropped (the staged path drops them too). Returns the keys adopted.
unsigned adopt_fused_keys(NodeContext& node) {
  obs::Counter& c_keys_merged =
      obs::MetricsRegistry::global().counter("dist.shuffle.keys_merged");
  const std::filesystem::path stage_dir = node.dir / "shuffle";
  unsigned adopted = 0;
  std::error_code ec;
  for (auto& [key, kr] : node.fused) {
    if (!kr.suffix.seen) {
      for (const auto& run : kr.prefix.runs) std::filesystem::remove(run, ec);
      continue;
    }
    // Never materialized.
    node.owned_sfx[key] = stage_dir / partition_file("sfx", key, "bin");
    node.owned_pfx[key] = stage_dir / partition_file("pfx", key, "bin");
    node.merged_hash[key] =
        combine_role_hashes(kr.suffix.hash, kr.prefix.hash);
    node.shuffle_logical += kr.suffix.bytes + kr.prefix.bytes;
    node.did_work = true;
    c_keys_merged.add(1);
    ++adopted;
  }
  node.sample_dir();
  return adopted;
}

/// Staged runs: concatenate each owned key's stage files, in global block
/// order, into its partition files — or adopt a checkpointed merge.
/// Returns the keys merged fresh.
unsigned assemble_staged_keys(NodeContext& node) {
  obs::Counter& c_keys_merged =
      obs::MetricsRegistry::global().counter("dist.shuffle.keys_merged");
  const std::filesystem::path stage_dir = node.dir / "shuffle";
  // Stage files present on disk, grouped by key and ordered by global block
  // id; ascending-block concatenation reproduces the single-node partition
  // bytes exactly.
  std::map<unsigned, std::map<std::uint32_t, std::filesystem::path>>
      sfx_stage, pfx_stage;
  for (const auto& entry : std::filesystem::directory_iterator(stage_dir)) {
    const std::string name = entry.path().filename().string();
    char role[4] = {};
    unsigned key = 0, block = 0;
    if (std::sscanf(name.c_str(), "stage_%3[a-z]_%u_%u", role, &key,
                    &block) != 3) {
      continue;
    }
    (role[0] == 's' ? sfx_stage : pfx_stage)[key][block] = entry.path();
  }

  // Keys to own: those with suffix data (lengths with only prefixes can
  // never produce candidates — the single-node sort drops them too) plus
  // keys a previous run already merged.
  std::set<unsigned> keys;
  for (const auto& [key, blocks] : sfx_stage) keys.insert(key);
  if (node.checkpoint != nullptr) {
    for (const std::string& ck :
         node.checkpoint->keys_with_prefix("shuffle:key:")) {
      keys.insert(static_cast<unsigned>(std::stoul(ck.substr(12))));
    }
  }

  unsigned merged_fresh = 0;
  for (const unsigned key : keys) {
    const std::filesystem::path merged_sfx =
        stage_dir / partition_file("sfx", key, "bin");
    const std::filesystem::path merged_pfx =
        stage_dir / partition_file("pfx", key, "bin");
    const std::string ck = shuffle_ck_key(key);

    if (node.checkpoint != nullptr && node.checkpoint->has(ck)) {
      // Adopt: the merged files still exist, or both sorts already
      // consumed them (external_sort_file skips whole files before opening
      // its input). The write→record→delete ordering below guarantees one
      // of the two holds.
      const bool sfx_sorted = node.checkpoint->has(
          "sort:file:" + partition_file("sfx", key, "sorted"));
      const bool pfx_sorted = node.checkpoint->has(
          "sort:file:" + partition_file("pfx", key, "sorted"));
      std::error_code ec;
      const bool merged_exist = std::filesystem::exists(merged_sfx, ec) &&
                                std::filesystem::exists(merged_pfx, ec);
      if ((sfx_sorted && pfx_sorted) || merged_exist) {
        node.owned_sfx[key] = merged_sfx;
        node.owned_pfx[key] = merged_pfx;
        node.merged_hash[key] = node.checkpoint->counter(ck, "hash");
        node.shuffle_logical += node.checkpoint->counter(ck, "bytes");
        continue;
      }
    }

    // Per-role content chains, combined like the fused ingest's.
    std::uint64_t h_sfx = fnv::kOffset;
    std::uint64_t h_pfx = fnv::kOffset;
    std::uint64_t merged_bytes = 0;
    const auto concatenate =
        [&](const std::map<std::uint32_t, std::filesystem::path>& stages,
            const std::filesystem::path& out_path, std::uint64_t& hash) {
          io::WriteOnlyStream out(out_path, node.shuffle_io);
          std::vector<std::byte> buffer(kShuffleChunkBytes);
          for (const auto& [block, stage_path] : stages) {
            {
              io::ReadOnlyStream in(stage_path, node.shuffle_io);
              for (;;) {
                const std::size_t n = in.read_bytes(buffer);
                if (n == 0) break;
                hash = fnv::fold_bytes(hash, buffer.data(), n);
                merged_bytes += n;
                out.write_bytes(std::span<const std::byte>(buffer.data(), n));
              }
            }
            if (node.checkpoint == nullptr) {
              // Without crash recovery to serve, a consumed stage file is
              // dead weight — drop it now so the workspace high-water mark
              // shrinks instead of doubling.
              std::error_code del_ec;
              std::filesystem::remove(stage_path, del_ec);
            }
          }
          out.close();
        };
    concatenate(sfx_stage[key], merged_sfx, h_sfx);
    concatenate(pfx_stage[key], merged_pfx, h_pfx);
    const std::uint64_t hash = combine_role_hashes(h_sfx, h_pfx);
    node.owned_sfx[key] = merged_sfx;
    node.owned_pfx[key] = merged_pfx;
    node.merged_hash[key] = hash;
    node.shuffle_logical += merged_bytes;
    node.sample_dir();
    if (node.checkpoint != nullptr) {
      // write → record → delete: the adopt branch above depends on the
      // merged files outliving the manifest entry.
      node.checkpoint->record(ck, {{"hash", hash}, {"bytes", merged_bytes}});
      std::error_code ec;
      for (const auto& [block, stage_path] : sfx_stage[key]) {
        std::filesystem::remove(stage_path, ec);
      }
      for (const auto& [block, stage_path] : pfx_stage[key]) {
        std::filesystem::remove(stage_path, ec);
      }
    }
    node.did_work = true;
    c_keys_merged.add(1);
    ++merged_fresh;
  }

  // Prefix-only keys cannot produce candidates; drop their stage data.
  std::error_code ec;
  for (const auto& [key, blocks] : pfx_stage) {
    if (keys.count(key) > 0) continue;
    for (const auto& [block, stage_path] : blocks) {
      std::filesystem::remove(stage_path, ec);
    }
  }
  return merged_fresh;
}

/// The master collects the global key list from every owner (the one piece
/// of metadata the reduce schedule needs) into `run.lengths`, and folds the
/// owners' partition hashes into the order-independent shuffle hash.
void gather_key_list(ClusterRun& run) {
  for (auto& node : run.nodes) {
    run.net.register_handler(
        node.id, kGatherKeys, [&node](unsigned, std::span<const std::byte>) {
          Payload reply;
          for (const auto& [key, path] : node.owned_sfx) {
            put(reply, static_cast<std::uint32_t>(key));
          }
          return reply;
        });
  }
  for (unsigned i = 0; i < run.config.node_count; ++i) {
    const Payload reply = run.net.request(0, i, kGatherKeys, {});
    std::size_t off = 0;
    while (off < reply.size()) {
      run.lengths.push_back(get<std::uint32_t>(reply, off));
    }
  }
  std::sort(run.lengths.begin(), run.lengths.end());

  std::map<unsigned, std::uint64_t> all_hashes;
  for (const auto& node : run.nodes) {
    for (const auto& [key, h] : node.merged_hash) all_hashes[key] = h;
  }
  std::uint64_t fold = fnv::kOffset;
  for (const auto& [key, h] : all_hashes) {
    fold = fnv::fold_u64(fold, key);
    fold = fnv::fold_u64(fold, h);
  }
  run.result.shuffle_hash = fold;
}

/// Adopt the fused ingest's results or assemble the stage files, then
/// price the shuffle: streamed runs expose only the push traffic the map
/// could not hide plus the assembly; synchronous runs pay both sections
/// as barriers.
void shuffle_phase(ClusterRun& run, const std::vector<NodeLanes>& map_lanes) {
  const bool streamed = run.config.streamed;
  PhaseScope scope = begin_phase(run, "shuffle");
  std::atomic<unsigned> fresh_keys{0};
  for_each_node(run.nodes, [&](NodeContext& node) {
    io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
    fresh_keys.fetch_add(
        run.fused ? adopt_fused_keys(node) : assemble_staged_keys(node),
        std::memory_order_relaxed);
  });
  gather_key_list(run);

  util::PhaseStats& phase = scope.phase;
  double compute_max = 0.0;  ///< map lanes alone (already charged)
  double overlap_max = 0.0;  ///< map lanes + push traffic
  double sync1_max = 0.0;    ///< push traffic as its own barrier phase
  double sec2_max = 0.0;
  double disk_max = 0.0;
  double net_max = 0.0;
  double codec_max = 0.0;
  unsigned overlap_arg = 0, sync1_arg = 0;  ///< binding nodes
  unsigned sec2_arg = 0;
  double sec2_disk = 0.0, sec2_net = 0.0;  ///< binding node's components
  for (auto& node : run.nodes) {
    const NodeLanes& m = map_lanes[node.id];
    const NodeLanes l = node.lanes();
    const double sdisk2 = l.shuffle_disk;
    const double net2 = l.network;

    compute_max =
        std::max(compute_max, std::max({m.device, m.disk, m.host}));
    const double node_overlap = std::max(
        {m.device, m.disk + m.shuffle_disk, m.host + m.codec, m.network});
    if (node_overlap > overlap_max) overlap_arg = node.id;
    overlap_max = std::max(overlap_max, node_overlap);
    const double node_sync1 = m.shuffle_disk + m.network + m.codec;
    if (node_sync1 > sync1_max) sync1_arg = node.id;
    sync1_max = std::max(sync1_max, node_sync1);
    const double node_sec2 =
        streamed ? std::max(sdisk2, net2) : sdisk2 + net2;
    if (node_sec2 > sec2_max) {
      sec2_arg = node.id;
      sec2_disk = sdisk2;
      sec2_net = net2;
    }
    sec2_max = std::max(sec2_max, node_sec2);
    disk_max = std::max(disk_max, m.shuffle_disk + sdisk2);
    net_max = std::max(net_max, m.network + net2);
    codec_max = std::max(codec_max, m.codec);

    // Every shuffle-lane byte is charged here, map-time pushes included.
    const auto sh = node.shuffle_io.snapshot();
    phase.disk_bytes_read += sh.bytes_read;
    phase.disk_bytes_written += sh.bytes_written;
    scope.nodes[node.id] = {m.shuffle_disk + sdisk2, 0.0, m.codec,
                            m.network + net2};
    run.result.shuffle_bytes += node.shuffle_logical;
  }
  phase.disk_seconds = disk_max;
  phase.host_seconds = codec_max;
  phase.modeled_seconds =
      streamed ? std::max(0.0, overlap_max - compute_max) + sec2_max
               : sync1_max + sec2_max;
  phase.resumed = fresh_keys.load() == 0 && !run.lengths.empty();
  if (obs::Profiler* prof = obs::Profiler::active()) {
    if (streamed) {
      // Only the push time the map couldn't hide is exposed.
      prof->chain(static_cast<int>(overlap_arg), "network", "push-exposed",
                  to_ps(std::max(0.0, overlap_max - compute_max)));
      prof->chain(static_cast<int>(sec2_arg),
                  sec2_disk >= sec2_net ? "disk" : "network", "assembly",
                  to_ps(std::max(sec2_disk, sec2_net)));
    } else {
      const NodeLanes& sl = map_lanes[sync1_arg];
      const int sn = static_cast<int>(sync1_arg);
      prof->chain(sn, "disk", "push-stage", to_ps(sl.shuffle_disk));
      prof->chain(sn, "network", "push-wire", to_ps(sl.network));
      prof->chain(sn, "host", "push-codec", to_ps(sl.codec));
      prof->chain(static_cast<int>(sec2_arg), "disk", "assembly",
                  to_ps(sec2_disk));
      prof->chain(static_cast<int>(sec2_arg), "network", "assembly",
                  to_ps(sec2_net));
    }
  }
  // Work the shuffle was responsible for (disk motion, wire time, codec
  // cycles) over the time it actually exposed: >1 means the map hid it.
  end_phase(run, scope, disk_max + net_max + codec_max, streamed);
}

// ---- sort ------------------------------------------------------------------

/// Each owner external-sorts its partitions; fused runs start at the merge
/// tree over the ingest's runs and produce identical sorted bytes.
void sort_node_partitions(ClusterRun& run, NodeContext& node) {
  io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
  const std::filesystem::path sorted_dir = node.dir / "sorted";
  std::filesystem::create_directories(sorted_dir);
  for (const auto& [key, raw_sfx] : node.owned_sfx) {
    const std::string sfx_name = partition_file("sfx", key, "sorted");
    const std::string pfx_name = partition_file("pfx", key, "sorted");
    core::SortedPartition part;
    part.length = key;
    part.suffix_file = sorted_dir / sfx_name;
    part.prefix_file = sorted_dir / pfx_name;
    const bool done =
        node.checkpoint != nullptr &&
        node.checkpoint->has("sort:file:" + sfx_name) &&
        node.checkpoint->has("sort:file:" + pfx_name);
    if (!done) {
      if (io::FaultInjector* injector = io::FaultInjector::active()) {
        injector->on_node_op(node.id, "sort:" + sfx_name);
      }
      node.did_work = true;
    }
    if (run.fused) {
      // Run cut points and the pairwise merge order match the staged
      // external sort, so the .sorted bytes are identical.
      ShuffleIngest::KeyResult& kr = node.fused.at(key);
      part.suffix_records =
          core::merge_sorted_runs(node.ws, std::move(kr.suffix.runs),
                                  part.suffix_file, run.geometry)
              .records;
      node.sample_dir();
      part.prefix_records =
          core::merge_sorted_runs(node.ws, std::move(kr.prefix.runs),
                                  part.prefix_file, run.geometry)
              .records;
    } else {
      part.suffix_records =
          core::external_sort_file(node.ws, raw_sfx, part.suffix_file,
                                   run.geometry)
              .records;
      node.sample_dir();
      part.prefix_records =
          core::external_sort_file(node.ws, node.owned_pfx.at(key),
                                   part.prefix_file, run.geometry)
              .records;
      std::error_code ec;
      std::filesystem::remove(raw_sfx, ec);
      std::filesystem::remove(node.owned_pfx.at(key), ec);
    }
    node.sorted.push_back(std::move(part));
  }
  node.sample_dir();
}

void sort_phase(ClusterRun& run) {
  const bool streamed = run.config.streamed;
  PhaseScope scope = begin_phase(run, "sort");
  for_each_node(run.nodes,
                [&](NodeContext& node) { sort_node_partitions(run, node); });

  util::PhaseStats& phase = scope.phase;
  double modeled_max = 0.0, dev_max = 0.0, disk_max = 0.0;
  unsigned modeled_arg = 0;
  double arg_dev = 0.0, arg_disk = 0.0;
  bool any_work = false;
  for (auto& node : run.nodes) {
    const NodeLanes l = node.lanes();
    const double node_modeled =
        streamed ? std::max(l.device, l.disk) : l.device + l.disk;
    if (node_modeled > modeled_max) {
      modeled_arg = node.id;
      arg_dev = l.device;
      arg_disk = l.disk;
    }
    modeled_max = std::max(modeled_max, node_modeled);
    dev_max = std::max(dev_max, l.device);
    disk_max = std::max(disk_max, l.disk);
    any_work = any_work || node.did_work;
    scope.nodes[node.id] = {l.disk, l.device, 0.0, 0.0};
  }
  phase.device_seconds = dev_max;
  phase.disk_seconds = disk_max;
  phase.modeled_seconds = modeled_max;
  phase.resumed = !any_work && !run.lengths.empty();
  if (obs::Profiler* prof = obs::Profiler::active()) {
    const int sn = static_cast<int>(modeled_arg);
    if (streamed) {
      prof->chain(sn, arg_dev >= arg_disk ? "device" : "disk", "sort-merge",
                  to_ps(std::max(arg_dev, arg_disk)));
    } else {
      prof->chain(sn, "device", "sort-merge", to_ps(arg_dev));
      prof->chain(sn, "disk", "sort-merge", to_ps(arg_disk));
    }
  }
  end_phase(run, scope, dev_max + disk_max, streamed);
}

// ---- reduce ----------------------------------------------------------------

void reduce_phase(ClusterRun& run) {
  PhaseScope scope = begin_phase(run, "reduce");
  ReduceOutcome out;
  if (run.config.graph == core::GraphMode::kReduced) {
    out = reduce_reduced_graph(run);
  } else {
    switch (run.config.reduce_strategy) {
      case ReduceStrategy::kLengthToken:
        out = reduce_token(run);
        break;
      case ReduceStrategy::kSpeculative:
        out = reduce_speculative(run);
        break;
    }
  }

  util::PhaseStats& phase = scope.phase;
  double dev_max = 0.0, disk_max = 0.0, host_max = 0.0;
  for (auto& node : run.nodes) {
    const NodeLanes l = node.lanes();
    dev_max = std::max(dev_max, l.device);
    disk_max = std::max(disk_max, l.disk);
    host_max = std::max(host_max, out.host[node.id]);
    scope.nodes[node.id] = {l.disk, l.device, out.host[node.id],
                            out.network[node.id]};
  }
  phase.device_seconds = dev_max;
  phase.disk_seconds = disk_max;
  phase.host_seconds = host_max;
  phase.modeled_seconds = out.modeled_seconds;
  phase.resumed = out.resumed;
  end_phase(run, scope, dev_max + disk_max + host_max, run.config.streamed);
}

// ---- compress (node 0 holds or gathers the merged graph) -------------------

void compress_phase(ClusterRun& run, const std::filesystem::path& output) {
  for (auto& node : run.nodes) {
    run.net.register_handler(node.id, kGatherEdges,
                             [&node](unsigned, std::span<const std::byte>) {
                               Payload reply;
                               if (node.graph == nullptr) return reply;
                               for (const graph::Edge& e :
                                    node.graph->edges()) {
                                 put(reply, e);
                               }
                               return reply;
                             });
  }

  PhaseScope scope = begin_phase(run, "compress");
  if (run.config.reduce_strategy == ReduceStrategy::kLengthToken &&
      run.config.graph == core::GraphMode::kGreedy) {
    // The token reduce left the edge set distributed; gather it.
    const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kGather);
    for (unsigned i = 0; i < run.config.node_count; ++i) {
      run.merged->import_edges(
          get_array<graph::Edge>(run.net.request(0, i, kGatherEdges, {})));
    }
  }

  core::CompressOptions options;
  options.include_singletons = run.config.include_singletons;
  const core::CompressResult compressed = core::run_compress_phase(
      run.nodes[0].ws, *run.merged, run.fastq, output, options);
  run.result.contigs = compressed.stats;

  util::PhaseStats& phase = scope.phase;
  for (auto& node : run.nodes) {
    const NodeLanes l = node.lanes();
    scope.nodes[node.id] = {l.disk, l.device, 0.0, l.network};
  }
  const double disk_bw = run.config.machine.disk_bandwidth_bytes_per_sec;
  const NodePhaseBreakdown& b = scope.nodes[0];
  phase.disk_bytes_read +=
      static_cast<std::uint64_t>(run.fastq_bytes) * 2;  // placement re-stream
  phase.device_seconds = b.device_seconds;
  phase.disk_seconds = b.disk_seconds + run.fastq_bytes * 2 / disk_bw;
  phase.modeled_seconds = b.total() + run.fastq_bytes * 2 / disk_bw;
  if (obs::Profiler* prof = obs::Profiler::active()) {
    // Everything funnels through node 0: the edge gather's incast, the
    // compression itself, then the placement re-stream of the input.
    prof->chain(0, "network", "gather-incast", to_ps(b.network_seconds));
    prof->chain(0, "device", "compress", to_ps(b.device_seconds));
    prof->chain(0, "disk", "compress", to_ps(b.disk_seconds));
    prof->chain(0, "host", "compress", to_ps(b.host_seconds));
    prof->chain(-1, "disk", "input-restream",
                to_ps(run.fastq_bytes * 2 / disk_bw));
  }
  // Node 0 compresses alone: nothing overlaps, so the efficiency is 1.
  end_phase(run, scope, phase.modeled_seconds, /*streamed=*/false);
}

}  // namespace

// ---- the node-lane ledger --------------------------------------------------

LaneMark NodeContext::take_mark() const {
  LaneMark m;
  m.io = io.snapshot();
  m.shuffle = shuffle_io.snapshot();
  m.device = device->modeled_seconds();
  m.network = net->modeled_seconds(id);
  m.host_bytes = host_bytes;
  m.codec_bytes = codec_bytes.load(std::memory_order_relaxed);
  return m;
}

NodeLanes NodeContext::lanes_since(const LaneMark& m) const {
  const auto io_now = io.snapshot();
  const auto sh_now = shuffle_io.snapshot();
  const double disk_bw = machine->disk_bandwidth_bytes_per_sec;
  const double host_bw = machine->host_bandwidth_bytes_per_sec;
  NodeLanes l;
  l.bytes_read = io_now.bytes_read - m.io.bytes_read;
  l.bytes_written = io_now.bytes_written - m.io.bytes_written;
  l.device = (device->modeled_seconds() - m.device) * machine->time_scale;
  l.disk = static_cast<double>(l.bytes_read + l.bytes_written) / disk_bw;
  l.shuffle_disk =
      static_cast<double>(sh_now.bytes_read - m.shuffle.bytes_read +
                          sh_now.bytes_written - m.shuffle.bytes_written) /
      disk_bw;
  l.host = static_cast<double>(host_bytes - m.host_bytes) / host_bw;
  l.codec = static_cast<double>(codec_bytes.load(std::memory_order_relaxed) -
                                m.codec_bytes) /
            host_bw;
  l.network = net->modeled_seconds(id) - m.network;
  return l;
}

void NodeContext::sample_dir() {
  std::uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      const std::uintmax_t n = it->file_size(ec);
      if (!ec) total += n;
    }
    ec.clear();
  }
  dir_high_water = std::max(dir_high_water, total);
}

void for_each_node(std::vector<NodeContext>& nodes,
                   const std::function<void(NodeContext&)>& body) {
  // Node bodies use the global pool for device kernels, which is safe
  // because these threads are not pool workers.
  std::vector<std::thread> threads;
  threads.reserve(nodes.size());
  std::mutex error_mutex;
  std::exception_ptr first_error;
  for (auto& node : nodes) {
    threads.emplace_back([&body, &node, &error_mutex, &first_error] {
      try {
        body(node);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

std::int64_t to_ps(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e12));
}

const char* dominant_lane(double device, double disk, double host) {
  if (device >= disk && device >= host) return "device";
  return disk >= host ? "disk" : "host";
}

ClusterRun::ClusterRun(const std::filesystem::path& fastq_path,
                       const ClusterConfig& cfg)
    : config(cfg),
      fastq(fastq_path),
      topo(effective_topology(cfg)),
      net(cfg.node_count, topo),
      geometry(core::BlockGeometry::from(cfg.machine)),
      fused(cfg.streamed && cfg.fuse_shuffle && cfg.work_dir.empty()),
      nodes(cfg.node_count) {
  geometry.streamed = config.streamed;
  std::filesystem::path root = config.work_dir;
  if (root.empty()) {
    temp.emplace("lasagna-cluster");
    root = temp->path();
  } else {
    std::filesystem::create_directories(root);
  }

  const std::uint64_t input_fp =
      core::CheckpointManager::fingerprint_inputs({fastq});
  const std::uint64_t config_hash = hash_cluster_config(config);
  for (unsigned i = 0; i < config.node_count; ++i) {
    NodeContext& node = nodes[i];
    node.id = i;
    node.machine = &config.machine;
    node.net = &net;
    node.device = std::make_unique<gpu::Device>(
        config.machine.gpu_profile, config.machine.device_memory_bytes);
    node.dir = root / ("node" + std::to_string(i));
    std::filesystem::create_directories(node.dir);
    node.ws = core::Workspace{node.device.get(), &node.host, &node.io,
                              node.dir};
    if (!config.work_dir.empty()) {
      node.checkpoint = std::make_unique<core::CheckpointManager>(
          node.dir, input_fp, config_hash);
      if (!(config.resume && node.checkpoint->load())) {
        node.checkpoint->reset();
      }
      node.ws.checkpoint = node.checkpoint.get();
    }
    node.mark();
  }

  // Pre-scan the shared input once (master): read count for block
  // assignment and graph sizing, plus the read-length table in reduced
  // graph mode.
  seq::ReadBatchStream stream(fastq, 1 << 20);
  seq::ReadBatch batch;
  while (stream.next(batch)) {
    if (config.graph == core::GraphMode::kReduced) {
      for (const std::string& r : batch.reads) {
        read_lengths.push_back(static_cast<std::uint32_t>(r.size()));
      }
    }
  }
  result.read_count = stream.reads_seen();
  fastq_bytes = static_cast<double>(std::filesystem::file_size(fastq));
  merged = std::make_unique<graph::StringGraph>(result.read_count);
}

}  // namespace detail

ClusterConfig ClusterConfig::supermic(unsigned nodes, double scale) {
  ClusterConfig config;
  config.node_count = nodes;
  config.machine = core::MachineConfig::supermic_k20(scale);
  config.network_bandwidth_bytes_per_sec = 7e9 / scale;  // 56 Gb/s
  config.graph_insert_seconds = 50e-9 * scale;
  config.graph_probe_seconds = 1e-9 * scale;
  // SuperMIC's fat tree: 16 nodes per leaf switch at full 56 Gb/s, 2:1
  // oversubscribed uplinks between racks, an extra switch hop of latency.
  config.topology.rack_size = 16;
  config.topology.inter_rack_bandwidth_bytes_per_sec = 3.5e9 / scale;
  config.topology.inter_rack_latency_seconds = 1e-5;
  return config;
}

DistributedResult run_distributed(const std::filesystem::path& fastq,
                                  const std::filesystem::path& output_fasta,
                                  const ClusterConfig& config) {
  if (config.node_count == 0) {
    throw std::invalid_argument("run_distributed: zero nodes");
  }
  detail::ClusterRun run(fastq, config);
  const std::vector<detail::NodeLanes> map_lanes = detail::map_phase(run);
  detail::shuffle_phase(run, map_lanes);
  detail::sort_phase(run);
  detail::reduce_phase(run);
  detail::compress_phase(run, output_fasta);

  DistributedResult& result = run.result;
  for (const auto& node : run.nodes) {
    result.peak_workspace_bytes += node.dir_high_water;
  }
  LOG_INFO << "distributed: " << result.read_count << " reads on "
           << config.node_count << " nodes, " << result.accepted_edges
           << " edges"
           << (result.phases_resumed > 0
                   ? " (" + std::to_string(result.phases_resumed) +
                         " phase(s) resumed)"
                   : "");
  return std::move(run.result);
}

}  // namespace lasagna::dist
