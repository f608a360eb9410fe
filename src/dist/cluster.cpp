#include "dist/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
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
#include "dist/shuffle_ingest.hpp"
#include "dist/topology.hpp"
#include "io/fault_injector.hpp"
#include "io/file_stream.hpp"
#include "io/partition.hpp"
#include "io/tempdir.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "seq/read_store.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"

namespace lasagna::dist {
namespace detail {
namespace {

/// Combine the two per-role content chains of one key into the value
/// stored in NodeContext::merged_hash. Per-role chains (each seeded
/// util::fnv::kOffset) are what the fused ingest can compute online —
/// suffix and prefix bytes interleave on the wire — so the staged path
/// folds the same way and the two stay comparable.
std::uint64_t combine_role_hashes(std::uint64_t h_sfx, std::uint64_t h_pfx) {
  return util::fnv::fold_u64(util::fnv::fold_u64(util::fnv::kOffset, h_sfx),
                             h_pfx);
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

/// The master's reply to kGetBlock: block `block` holds reads [first,
/// first + count), and its mapper opens the input at the start of the map
/// batch that holds `first` (the pre-scan's `batch_starts`).
struct BlockGrant {
  std::uint32_t block = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  std::uint32_t start_id = 0;
  std::uint64_t start_offset = 0;
};
static_assert(sizeof(BlockGrant) == 24, "no padding on the wire");

/// Header of one pushed shuffle chunk. The chunk's tuple bytes follow.
struct PushHeader {
  std::uint8_t role = 0;  // 0 = sfx, 1 = pfx
  std::uint8_t pad[3] = {};
  std::uint32_t key = 0;
  std::uint32_t block = 0;   // global input-block id
  std::uint64_t offset = 0;  // byte offset within the (key, block) stage
};

// ---- phase boundaries ----------------------------------------------------

/// Close a phase whose function set its modeled and lane seconds and
/// `resumed` flag: add every node's `io` bytes and memory peaks, advance the
/// cluster clock, close the ledger with each node's lanes, and start every
/// node's next phase.
void close_phase(ClusterRun& run, core::PhaseLedger& ledger,
                 std::vector<NodePhaseBreakdown> nodes, double lane_work,
                 bool streamed) {
  util::PhaseStats& phase = ledger.phase;
  for (auto& node : run.nodes) {
    const NodeLanes l = node.lanes();
    phase.disk_bytes_read += l.bytes_read;
    phase.disk_bytes_written += l.bytes_written;
    phase.peak_host_bytes = std::max(phase.peak_host_bytes, node.host.peak());
    phase.peak_device_bytes =
        std::max(phase.peak_device_bytes, node.device->memory().peak());
  }
  run.clock += phase.modeled_seconds;
  ledger.close(nodes, lane_work, streamed);
  run.result.per_node.push_back(std::move(nodes));

  run.net.reset_counters();
  for (auto& node : run.nodes) {
    node.sample_dir();
    node.mark();
    node.host.reset_peak();
    node.device->memory().reset_peak();
  }
}

// ---- map (with overlapped push shuffle) ------------------------------------

/// The master's input-block schedule: mapper k maps blocks k, k+N, ...,
/// skipping blocks a previous (crashed) run already mapped and pushed
/// according to any node's manifest. The assignment depends only on the
/// input, never on request order, so the modeled run is a pure function of
/// it. Each mapper advances only its own cursor, and `done` is fixed
/// before the map starts, so concurrent requests share nothing mutable.
struct BlockDispenser {
  std::uint64_t blocks = 0;
  std::vector<std::uint64_t> cursor;  ///< per mapper: its next block
  std::set<std::uint64_t> done;

  /// The next block for mapper `src`, or nullopt when none remain.
  std::optional<std::uint64_t> take(unsigned src) {
    const std::uint64_t stride = cursor.size();
    std::uint64_t& next = cursor[src];
    while (next < blocks && done.count(next) > 0) next += stride;
    if (next >= blocks) return std::nullopt;
    const std::uint64_t g = next;
    next += stride;
    return g;
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
          const bool wrote =
              n == 0 || std::fwrite(logical.data(), 1, n, f) == n;
          // fclose writes the buffered tail: its failure is a failed write.
          if (std::fclose(f) != 0 || !wrote) {
            throw std::runtime_error("shuffle stage write failed: " +
                                     path.string());
          }
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
        owner != node.id ? codec::encode_chunk(chunk, phase)
                         : codec::encode_raw(chunk);
    Payload payload;
    payload.reserve(sizeof(hdr) + body.size());
    put(payload, hdr);
    payload.insert(payload.end(), body.begin(), body.end());
    (void)run.net.request(node.id, owner, kPushChunk, payload);
    c_chunks.add(1);
    c_stage_bytes.add(static_cast<std::int64_t>(n));
    if (owner != node.id) {
      node.codec_bytes.fetch_add(n, std::memory_order_relaxed);
      c_logical_bytes.add(static_cast<std::int64_t>(n));
      c_wire_bytes.add(static_cast<std::int64_t>(body.size()));
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
    const auto grant = get<BlockGrant>(reply, off);
    const std::uint64_t g = grant.block;

    if (io::FaultInjector* injector = io::FaultInjector::active()) {
      injector->on_node_op(node.id, block_key(g));
    }

    core::MapOptions options;
    options.min_overlap = config.min_overlap;
    options.fingerprints = config.fingerprints;
    options.first_read = grant.first;
    options.max_reads = grant.count;
    options.start = {grant.start_id, grant.start_offset};
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
      node.checkpoint->record(block_key(g), {{"first", grant.first},
                                             {"reads", grant.count},
                                             {"tuples", tuples}});
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
  core::PhaseLedger ledger("map", run.result.stats, run.rows);

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
    for (const auto& [block, key] :
         node.checkpoint->numbered_keys("map:block:")) {
      dispenser.done.insert(block);
    }
  }
  for (unsigned k = 0; k < config.node_count; ++k) {
    dispenser.cursor.push_back(k);
  }
  run.net.register_handler(
      0, kGetBlock,
      [&dispenser, &starts = run.batch_starts, block_reads, read_count](
          unsigned src, std::span<const std::byte>) {
        Payload reply;
        const std::optional<std::uint64_t> g = dispenser.take(src);
        if (!g.has_value()) return reply;  // no more work
        const std::uint64_t first = *g * block_reads;
        // The last batch starting at or before the block's first read.
        const seq::BatchStart& start = *std::prev(std::upper_bound(
            starts.begin(), starts.end(), first,
            [](std::uint64_t id, const seq::BatchStart& batch) {
              return id < batch.first_id;
            }));
        BlockGrant grant;
        grant.block = static_cast<std::uint32_t>(*g);
        grant.first = static_cast<std::uint32_t>(first);
        grant.count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(block_reads, read_count - first));
        grant.start_id = start.first_id;
        grant.start_offset = start.offset;
        put(reply, grant);
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

  std::vector<NodeLanes> lanes(config.node_count);
  std::vector<NodePhaseBreakdown> nodes(config.node_count);
  for (auto& node : run.nodes) {
    const NodeLanes& l = lanes[node.id] = node.lanes();
    nodes[node.id] = {l.disk, l.device, l.host, 0.0};
  }

  // Reading the shared input is part of the map cost; a resumed run only
  // pays for the blocks it actually re-mapped. modeled = shared-input read
  // + the binding node's map lanes, and the phase's chain records both.
  const double disk_bw = config.machine.disk_bandwidth_bytes_per_sec;
  const double input_factor =
      dispenser.blocks == 0 ? 0.0
                            : static_cast<double>(fresh_blocks) /
                                  static_cast<double>(dispenser.blocks);
  const double input_bytes = run.fastq_bytes * 2.0 * input_factor;
  const double input_seconds = input_bytes / config.node_count / disk_bw;
  if (obs::Profiler* prof = obs::Profiler::active()) {
    prof->chain(-1, "disk", "input-read", to_ps(input_seconds));
  }
  const core::LanePrice price =
      core::price_lanes(nodes, config.streamed, "map-scan");
  util::PhaseStats& phase = ledger.phase;
  phase.disk_bytes_read += static_cast<std::uint64_t>(input_bytes);
  phase.device_seconds = price.device;
  phase.host_seconds = price.host;
  phase.disk_seconds = price.disk + input_seconds;
  phase.modeled_seconds = price.modeled + input_seconds;
  phase.resumed = fresh_blocks == 0 && dispenser.blocks > 0;
  close_phase(run, ledger, std::move(nodes),
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
    node.owned_sfx[key] =
        stage_dir / io::partition_file_name("sfx", key, "bin");
    node.owned_pfx[key] =
        stage_dir / io::partition_file_name("pfx", key, "bin");
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
    for (const auto& [key, ck] :
         node.checkpoint->numbered_keys("shuffle:key:")) {
      keys.insert(static_cast<unsigned>(key));
    }
  }

  unsigned merged_fresh = 0;
  for (const unsigned key : keys) {
    const std::filesystem::path merged_sfx =
        stage_dir / io::partition_file_name("sfx", key, "bin");
    const std::filesystem::path merged_pfx =
        stage_dir / io::partition_file_name("pfx", key, "bin");
    const std::string ck = shuffle_ck_key(key);

    if (node.checkpoint != nullptr && node.checkpoint->has(ck)) {
      // Adopt: the merged files still exist, or both sorts already
      // consumed them (external_sort_file skips whole files before opening
      // its input). The write→record→delete ordering below guarantees one
      // of the two holds.
      const bool sfx_sorted = node.checkpoint->has(
          "sort:file:" + io::partition_file_name("sfx", key, "sorted"));
      const bool pfx_sorted = node.checkpoint->has(
          "sort:file:" + io::partition_file_name("pfx", key, "sorted"));
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
    std::uint64_t h_sfx = util::fnv::kOffset;
    std::uint64_t h_pfx = util::fnv::kOffset;
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
                hash = util::fnv::fold_bytes(hash, buffer.data(), n);
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
  std::uint64_t fold = util::fnv::kOffset;
  for (const auto& [key, h] : all_hashes) {
    fold = util::fnv::fold_u64(fold, key);
    fold = util::fnv::fold_u64(fold, h);
  }
  run.result.shuffle_hash = fold;
}

/// Adopt the fused ingest's results or assemble the stage files, then
/// price the shuffle: streamed runs expose only the push traffic the map
/// could not hide plus the assembly; synchronous runs pay both sections
/// as barriers.
void shuffle_phase(ClusterRun& run, const std::vector<NodeLanes>& map_lanes) {
  const bool streamed = run.config.streamed;
  core::PhaseLedger ledger("shuffle", run.result.stats, run.rows);
  std::atomic<unsigned> fresh_keys{0};
  for_each_node(run.nodes, [&](NodeContext& node) {
    io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
    fresh_keys.fetch_add(
        run.fused ? adopt_fused_keys(node) : assemble_staged_keys(node),
        std::memory_order_relaxed);
  });
  gather_key_list(run);

  util::PhaseStats& phase = ledger.phase;
  std::vector<NodePhaseBreakdown> nodes(run.config.node_count);
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
    nodes[node.id] = {m.shuffle_disk + sdisk2, 0.0, m.codec,
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
  close_phase(run, ledger, std::move(nodes), disk_max + net_max + codec_max,
              streamed);
}

// ---- sort ------------------------------------------------------------------

/// Each owner external-sorts its partitions; fused runs start at the merge
/// tree over the ingest's runs and produce identical sorted bytes.
void sort_node_partitions(ClusterRun& run, NodeContext& node) {
  io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
  const std::filesystem::path sorted_dir = node.dir / "sorted";
  std::filesystem::create_directories(sorted_dir);
  for (const auto& [key, raw_sfx] : node.owned_sfx) {
    const std::string sfx_name =
        io::partition_file_name("sfx", key, "sorted");
    const std::string pfx_name =
        io::partition_file_name("pfx", key, "sorted");
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
  core::PhaseLedger ledger("sort", run.result.stats, run.rows);
  for_each_node(run.nodes,
                [&](NodeContext& node) { sort_node_partitions(run, node); });

  std::vector<NodePhaseBreakdown> nodes(run.config.node_count);
  bool any_work = false;
  for (auto& node : run.nodes) {
    const NodeLanes l = node.lanes();
    nodes[node.id] = {l.disk, l.device, 0.0, 0.0};
    any_work = any_work || node.did_work;
  }
  const core::LanePrice price =
      core::price_lanes(nodes, streamed, "sort-merge");
  util::PhaseStats& phase = ledger.phase;
  phase.device_seconds = price.device;
  phase.disk_seconds = price.disk;
  phase.modeled_seconds = price.modeled;
  phase.resumed = !any_work && !run.lengths.empty();
  close_phase(run, ledger, std::move(nodes),
              price.device + price.disk + price.host, streamed);
}

// ---- reduce ----------------------------------------------------------------

void reduce_phase(ClusterRun& run) {
  core::PhaseLedger ledger("reduce", run.result.stats, run.rows);
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

  util::PhaseStats& phase = ledger.phase;
  std::vector<NodePhaseBreakdown> nodes(run.config.node_count);
  double dev_max = 0.0, disk_max = 0.0, host_max = 0.0;
  for (auto& node : run.nodes) {
    const NodeLanes l = node.lanes();
    dev_max = std::max(dev_max, l.device);
    disk_max = std::max(disk_max, l.disk);
    host_max = std::max(host_max, out.host[node.id]);
    nodes[node.id] = {l.disk, l.device, out.host[node.id],
                      out.network[node.id]};
  }
  phase.device_seconds = dev_max;
  phase.disk_seconds = disk_max;
  phase.host_seconds = host_max;
  phase.modeled_seconds = out.modeled_seconds;
  phase.resumed = out.resumed;
  close_phase(run, ledger, std::move(nodes), dev_max + disk_max + host_max,
              run.config.streamed);
}

// ---- compress (node 0 holds or gathers the merged graph) -------------------

void compress_phase(ClusterRun& run, const std::filesystem::path& output) {
  for (auto& node : run.nodes) {
    run.net.register_handler(node.id, kGatherEdges,
                             [&node](unsigned, std::span<const std::byte>) {
                               Payload reply;
                               for (const graph::Edge& e : node.edges) {
                                 put(reply, e);
                               }
                               return reply;
                             });
  }

  core::PhaseLedger ledger("compress", run.result.stats, run.rows);
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
  options.read_lengths = std::move(run.read_lengths);
  const core::CompressResult compressed = core::run_compress_phase(
      run.nodes[0].ws, *run.merged, run.fastq, output, options);
  run.result.contigs = compressed.stats;

  util::PhaseStats& phase = ledger.phase;
  std::vector<NodePhaseBreakdown> nodes(run.config.node_count);
  for (auto& node : run.nodes) {
    const NodeLanes l = node.lanes();
    nodes[node.id] = {l.disk, l.device, 0.0, l.network};
  }
  const double disk_bw = run.config.machine.disk_bandwidth_bytes_per_sec;
  const NodePhaseBreakdown& b = nodes[0];
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
  close_phase(run, ledger, std::move(nodes), phase.modeled_seconds,
              /*streamed=*/false);
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

ClusterRun::ClusterRun(const std::filesystem::path& fastq_path,
                       const ClusterConfig& cfg)
    : config(cfg),
      fastq(fastq_path),
      net(cfg.node_count, ClusterTopology::fat_tree(cfg.machine.time_scale)),
      geometry(core::BlockGeometry::from(cfg.machine)),
      fused(cfg.streamed && cfg.fuse_shuffle && cfg.work_dir.empty()),
      nodes(cfg.node_count) {
  geometry.streamed = config.streamed;
  rows.phase = "dist.cluster";
  std::filesystem::path root = config.work_dir;
  if (root.empty()) {
    temp.emplace("lasagna-cluster");
    root = temp->path();
  } else {
    std::filesystem::create_directories(root);
  }

  // Only checkpointed runs need the input fingerprint, which reads the
  // whole input once.
  const std::uint64_t input_fp =
      config.work_dir.empty()
          ? 0
          : core::CheckpointManager::fingerprint_inputs({fastq});
  // The shared configuration's hash plus the node count, which divides the
  // work. The reduce strategy and `streamed` stay out: every strategy and
  // both paths write identical per-node files.
  const std::uint64_t config_hash = util::fnv::fold_u64(
      core::hash_assembly_config(config), config.node_count);
  bool resumable = config.resume;
  for (unsigned i = 0; i < config.node_count; ++i) {
    NodeContext& node = nodes[i];
    node.id = i;
    node.machine = &config.machine;
    node.net = &net;
    node.device = std::make_unique<gpu::Device>(
        config.machine.gpu_profile, config.machine.device_memory_bytes);
    node.dir = root / ("node" + std::to_string(i));
    rows.node_lanes.push_back("dist.node" + std::to_string(i) + ".");
    std::filesystem::create_directories(node.dir);
    node.ws = core::Workspace{node.device.get(), &node.host, &node.io,
                              node.dir};
    if (!config.work_dir.empty()) {
      node.checkpoint = std::make_unique<core::CheckpointManager>(
          node.dir, input_fp, config_hash, node.io);
      resumable = resumable &&
                  node.checkpoint->load({"map:block:", "shuffle:key:"});
      node.ws.checkpoint = node.checkpoint.get();
    }
    node.mark();
  }
  // The cluster resumes from every node's manifest or from none: a node
  // that started over would wait for shuffle data the others skip.
  for (NodeContext& node : nodes) {
    if (node.checkpoint != nullptr && !resumable) node.checkpoint->reset();
  }

  // Pre-scan the shared input once (master) on the map's batch grid: read
  // count for block assignment and graph sizing, the read-length table,
  // and where every map batch starts.
  seq::ReadBatchStream stream(
      fastq, core::batch_bases_for(nodes.front().device->memory().capacity()));
  seq::ReadBatch batch;
  while (stream.next(batch)) {
    batch_starts.push_back(batch.start());
    for (const std::string& r : batch.reads) {
      read_lengths.push_back(static_cast<std::uint16_t>(r.size()));
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
  result.phases_resumed = result.stats.resumed_phase_count();
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
