#include "dist/shuffle_ingest.hpp"

#include <atomic>
#include <set>
#include <span>
#include <stdexcept>

#include "core/sort_phase.hpp"
#include "io/partition.hpp"
#include "obs/metrics.hpp"
#include "util/background.hpp"
#include "util/fnv.hpp"

namespace lasagna::dist {

namespace {

constexpr std::size_t kRecordBytes = sizeof(core::FpRecord);

std::filesystem::path partition_output(const std::filesystem::path& run_dir,
                                       std::uint8_t role,
                                       std::uint32_t key) {
  return run_dir /
         io::partition_file_name(role == 0 ? "sfx" : "pfx", key, "sorted");
}

}  // namespace

struct ShuffleIngest::Impl {
  struct Chunk {
    std::uint8_t role = 0;
    std::uint32_t key = 0;
    std::uint32_t block = 0;
    bool done = false;  ///< block-completion marker, not a chunk
    std::vector<std::byte> bytes;
  };

  /// Per-(role, key) ingest state, owned by the ingest thread.
  struct Stream {
    std::uint8_t role = 0;
    std::uint32_t key = 0;
    std::map<std::uint32_t, std::vector<std::vector<std::byte>>> pending;
    std::vector<std::byte> carry;  ///< partial trailing record bytes
    std::unique_ptr<core::SortRunBuilder> builder;
    Partition part;
  };

  core::Workspace ws;
  core::BlockGeometry geometry;
  std::filesystem::path run_dir;
  std::mutex* device_mutex;

  /// Bytes delivered and not yet appended to a run builder: queued in
  /// `chunks`, pending per block or carried as a partial record. Its
  /// high-water mark over every node is `dist.shuffle.ingest_peak_bytes`.
  std::atomic<std::int64_t> held{0};
  obs::Gauge& held_peak =
      obs::MetricsRegistry::global().gauge("dist.shuffle.ingest_peak_bytes");

  // Ingest-thread state.
  std::map<std::uint64_t, Stream> streams;  ///< (role << 32 | key)
  std::set<std::uint32_t> done_blocks;
  std::uint32_t frontier = 0;  ///< smallest block not yet completed

  /// Unbounded, so AM handlers never block on a device sort. Last member:
  /// its thread uses everything above.
  util::Drain<Chunk> chunks;

  Impl(const core::Workspace& workspace, const core::BlockGeometry& geo,
       std::filesystem::path dir, std::mutex* dev_mutex)
      : ws(workspace),
        geometry(geo),
        run_dir(std::move(dir)),
        device_mutex(dev_mutex),
        chunks([this](Chunk& c) { process(std::move(c)); },
               util::kUnboundedDepth) {
    std::filesystem::create_directories(run_dir);
  }

  static std::uint64_t stream_id(std::uint8_t role, std::uint32_t key) {
    return (static_cast<std::uint64_t>(role) << 32) | key;
  }

  void feed(Stream& s, std::span<const std::byte> bytes) {
    s.part.bytes += bytes.size();
    s.part.hash =
        util::fnv::fold_bytes(s.part.hash, bytes.data(), bytes.size());
    s.carry.insert(s.carry.end(), bytes.begin(), bytes.end());
    const std::size_t whole = s.carry.size() / kRecordBytes;
    if (whole == 0) return;
    if (s.builder == nullptr) {
      s.builder = std::make_unique<core::SortRunBuilder>(
          ws, partition_output(run_dir, s.role, s.key), geometry,
          device_mutex);
    }
    s.builder->append(std::span<const core::FpRecord>(
        reinterpret_cast<const core::FpRecord*>(s.carry.data()), whole));
    s.carry.erase(s.carry.begin(),
                  s.carry.begin() +
                      static_cast<std::ptrdiff_t>(whole * kRecordBytes));
    held.fetch_sub(static_cast<std::int64_t>(whole * kRecordBytes),
                   std::memory_order_relaxed);
  }

  /// Feed every buffered chunk of blocks below the frontier, in ascending
  /// block order (chunks within a block are already in push-offset order).
  void drain_ready(Stream& s, bool everything) {
    while (!s.pending.empty()) {
      auto it = s.pending.begin();
      if (!everything && it->first >= frontier) break;
      for (const auto& bytes : it->second) {
        feed(s, bytes);
      }
      s.pending.erase(it);
    }
  }

  void advance_frontier() {
    bool moved = false;
    while (done_blocks.count(frontier) > 0) {
      done_blocks.erase(frontier);
      ++frontier;
      moved = true;
    }
    if (!moved) return;
    for (auto& [id, s] : streams) {
      drain_ready(s, /*everything=*/false);
    }
  }

  void process(Chunk&& c) {
    if (c.done) {
      done_blocks.insert(c.block);
      advance_frontier();
      return;
    }
    Stream& s = streams[stream_id(c.role, c.key)];
    s.role = c.role;
    s.key = c.key;
    s.part.seen = true;
    if (c.block < frontier) {
      // The block is complete; a chunk delivered after its completion
      // marker cannot happen (pushes precede the broadcast) — feed
      // directly anyway to stay safe.
      feed(s, c.bytes);
      return;
    }
    s.pending[c.block].push_back(std::move(c.bytes));
  }

  std::map<unsigned, KeyResult> finish() {
    chunks.finish();
    // Everything delivered: feed any remainder regardless of frontier
    // (every block is complete once the map barrier has fallen), then
    // flush the builders and collect results.
    std::map<unsigned, KeyResult> results;
    for (auto& [id, s] : streams) {
      drain_ready(s, /*everything=*/true);
      if (!s.carry.empty()) {
        throw std::logic_error(
            "shuffle ingest: partition bytes not a whole record count");
      }
      if (s.builder != nullptr) {
        s.builder->finish();
        s.part.records = s.builder->records();
        s.part.runs = s.builder->runs();
        s.builder.reset();
      }
      KeyResult& kr = results[s.key];
      (s.role == 0 ? kr.suffix : kr.prefix) = std::move(s.part);
    }
    streams.clear();
    return results;
  }
};

ShuffleIngest::ShuffleIngest(const core::Workspace& ws,
                             const core::BlockGeometry& geometry,
                             std::filesystem::path run_dir,
                             std::mutex* device_mutex)
    : impl_(std::make_unique<Impl>(ws, geometry, std::move(run_dir),
                                   device_mutex)) {}

ShuffleIngest::~ShuffleIngest() = default;

void ShuffleIngest::deliver(std::uint8_t role, std::uint32_t key,
                            std::uint32_t block,
                            std::vector<std::byte> bytes) {
  const auto size = static_cast<std::int64_t>(bytes.size());
  impl_->held_peak.set_max(
      impl_->held.fetch_add(size, std::memory_order_relaxed) + size);
  impl_->chunks.submit(Impl::Chunk{
      .role = role, .key = key, .block = block, .bytes = std::move(bytes)});
}

void ShuffleIngest::block_done(std::uint32_t block) {
  impl_->chunks.submit(
      Impl::Chunk{.block = block, .done = true, .bytes = {}});
}

std::map<unsigned, ShuffleIngest::KeyResult> ShuffleIngest::finish() {
  return impl_->finish();
}

}  // namespace lasagna::dist
