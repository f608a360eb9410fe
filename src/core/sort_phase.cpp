#include "core/sort_phase.hpp"

#include <algorithm>

#include "core/checkpoint.hpp"
#include "core/file_window.hpp"
#include "gpu/primitives.hpp"
#include "gpu/stream.hpp"
#include "io/async_record_stream.hpp"
#include "io/partition.hpp"
#include "io/record_stream.hpp"
#include "kernel/backend.hpp"
#include "obs/trace.hpp"
#include "util/background.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::core {

namespace {

/// Chunk i runs on modeled stream i % 2 (gpu::StreamPair); synchronous mode
/// aliases both legs to the default stream, keeping legacy modeled sums.
using DeviceStreams = gpu::StreamPair;

/// Level 2a: the device radix sort of each m_d chunk of `block`, one batch
/// through the active kernel backend. On the simulated device the
/// H2D/sort/D2H legs charge the chunk's stream; alternating chunks across
/// the two legs models transfers hidden behind the neighbouring chunk's
/// kernel. A one-record tail chunk is already sorted and is not sent.
void sort_chunks(Workspace& ws, std::span<FpRecord> block, std::size_t m_d,
                 DeviceStreams& streams) {
  const std::size_t chunks =
      block.size() / m_d + (block.size() % m_d > 1 ? 1 : 0);
  auto chunk = [block, m_d](std::size_t i) {
    return block.subspan(i * m_d, std::min(m_d, block.size() - i * m_d));
  };
  kernel::DeviceContext ctx{ws.device, &streams};
  kernel::run_sort_pairs_batch(
      chunks,
      [&chunk](std::size_t i, std::vector<gpu::Key128>& keys,
               std::vector<std::uint64_t>& vals) {
        const std::span<const FpRecord> records = chunk(i);
        keys.resize(records.size());
        vals.resize(records.size());
        for (std::size_t j = 0; j < records.size(); ++j) {
          keys[j] = records[j].fp;
          vals[j] = records[j].vertex;
        }
      },
      [&chunk](std::size_t i, std::span<const gpu::Key128> keys,
               std::span<const std::uint64_t> vals) {
        const std::span<FpRecord> records = chunk(i);
        for (std::size_t j = 0; j < records.size(); ++j) {
          records[j] =
              FpRecord{keys[j], static_cast<std::uint32_t>(vals[j]), 0};
        }
      },
      ctx);
}

/// One piece of a planned Algorithm-1 merge: the equalized windows `a` and
/// `b` merged (ties from `a`) to offset `out` of the merge's output, or `a`
/// copied there when `b` is empty.
struct MergePiece {
  std::span<const FpRecord> a;
  std::span<const FpRecord> b;
  std::size_t out = 0;
};

void place_piece(const MergePiece& piece, FpRecord* out) {
  if (piece.b.empty()) {
    std::copy(piece.a.begin(), piece.a.end(), out);
  } else {
    std::merge(piece.a.begin(), piece.a.end(), piece.b.begin(),
               piece.b.end(), out, fp_less);
  }
}

/// The device round trip of merging two equalized windows of `na` and `nb`
/// records, charged on the next leg of `streams`: keys and values of both
/// windows in, the merge kernel, the merged keys and values out.
void charge_device_merge(std::size_t na, std::size_t nb,
                         DeviceStreams& streams) {
  constexpr std::size_t kKeyBytes = sizeof(gpu::Key128);
  constexpr std::size_t kValueBytes = sizeof(std::uint64_t);
  streams.round_trip(
      [&](gpu::Stream s) {
        for (const std::size_t n : {na, nb}) {
          s.charge_transfer(kKeyBytes * n);
          s.charge_transfer(kValueBytes * n);
        }
      },
      [&](gpu::Stream s) { gpu::charge_merge<FpRecord>(s, na + nb); },
      [&](gpu::Stream s) {
        s.charge_transfer(kKeyBytes * (na + nb));
        s.charge_transfer(kValueBytes * (na + nb));
      });
}

using RecordSink = std::function<void(std::span<const FpRecord>)>;

/// A sorted in-memory run read as a stream of windows, the way FileWindow
/// reads a sorted file.
struct SpanWindow {
  std::span<const FpRecord> records;  ///< not yet consumed
  std::size_t window;

  [[nodiscard]] bool fill() const { return !records.empty(); }
  [[nodiscard]] std::span<const FpRecord> view() const {
    return records.first(std::min(window, records.size()));
  }
  void consume(std::size_t n) { records = records.subspan(n); }
};

/// Algorithm 1's loop over two sorted window streams while both hold
/// records: a window entirely below the other side's passes straight to
/// `sink` (lines 5-6); otherwise the window with the larger last key is cut
/// at the upper bound of the smaller last key (lines 8-15) and `merge`
/// merges the two equalized windows. A cut-off tail stays in its stream
/// and is reconsidered next iteration, so cutting is always safe, even at
/// end of file. Returns once either stream is drained; the caller passes
/// the other's remainder through.
template <class Window, class Sink, class Merge>
void merge_windows_loop(Window& wa, Window& wb, const Sink& sink,
                        const Merge& merge) {
  while (wa.fill() && wb.fill()) {
    std::span<const FpRecord> va = wa.view();
    std::span<const FpRecord> vb = wb.view();
    if (fp_less(va.back(), vb.front())) {
      sink(va);
      wa.consume(va.size());
      continue;
    }
    if (fp_less(vb.back(), va.front())) {
      sink(vb);
      wb.consume(vb.size());
      continue;
    }
    const FpRecord k{std::min(va.back().fp, vb.back().fp), 0, 0};
    auto cut = [&k](std::span<const FpRecord> w) {
      return w.first(static_cast<std::size_t>(
          std::upper_bound(w.begin(), w.end(), k, fp_less) - w.begin()));
    };
    if (k.fp == va.back().fp) {
      vb = cut(vb);
    } else {
      va = cut(va);
    }
    merge(va, vb);
    wa.consume(va.size());
    wb.consume(vb.size());
  }
}

/// Device-level Algorithm 1 over two sorted host runs, planned: walks the
/// windows of m_d / 2 records in order, charges each equalized pair's
/// device round trip as it is met, and appends the pieces that lay the
/// merged run out from offset `out`.
void plan_device_merge(std::span<const FpRecord> a,
                       std::span<const FpRecord> b,
                       std::uint64_t device_block_records, std::size_t out,
                       DeviceStreams& streams,
                       std::vector<MergePiece>& pieces) {
  const std::size_t half =
      std::max<std::size_t>(1, device_block_records / 2);
  auto add = [&](std::span<const FpRecord> va, std::span<const FpRecord> vb) {
    pieces.push_back({va, vb, out});
    out += va.size() + vb.size();
  };
  auto pass = [&add](std::span<const FpRecord> run) {
    if (!run.empty()) add(run, {});
  };
  SpanWindow wa{a, half};
  SpanWindow wb{b, half};
  merge_windows_loop(wa, wb, pass,
                     [&](std::span<const FpRecord> va,
                         std::span<const FpRecord> vb) {
                       charge_device_merge(va.size(), vb.size(), streams);
                       add(va, vb);
                     });
  pass(wa.records);
  pass(wb.records);
}

/// Device-level Algorithm 1 streamed to `sink` in order: the planned
/// pieces merge one at a time through `buffer` (m_d records, reused across
/// calls); pass-through pieces go to `sink` straight from the runs.
void device_windowed_merge_impl(std::span<const FpRecord> a,
                                std::span<const FpRecord> b,
                                std::uint64_t device_block_records,
                                const RecordSink& sink,
                                DeviceStreams& streams,
                                std::vector<MergePiece>& pieces,
                                std::vector<FpRecord>& buffer) {
  pieces.clear();
  plan_device_merge(a, b, device_block_records, 0, streams, pieces);
  for (const MergePiece& piece : pieces) {
    if (piece.b.empty()) {
      sink(piece.a);
      continue;
    }
    const std::size_t n = piece.a.size() + piece.b.size();
    if (buffer.size() < n) buffer.resize(n);
    place_piece(piece, buffer.data());
    sink(std::span<const FpRecord>(buffer).first(n));
  }
}

void sort_host_block_impl(Workspace& ws, std::span<FpRecord> block,
                          std::uint64_t device_block_records,
                          DeviceStreams& streams) {
  const std::size_t m_d = std::max<std::uint64_t>(2, device_block_records);
  sort_chunks(ws, block, m_d, streams);
  if (block.size() <= m_d) return;

  // Level 2b: pairwise Algorithm-1 merges until one run remains, ping-
  // ponging between the block and a tracked scratch buffer. Each level is
  // planned first, which issues its device charges in Algorithm-1 order;
  // its pieces then merge concurrently straight into the other buffer.
  util::TrackedAllocation scratch_mem(*ws.host,
                                      block.size() * sizeof(FpRecord));
  std::vector<FpRecord> scratch(block.size());
  std::span<FpRecord> src = block;
  std::span<FpRecord> dst = scratch;
  std::vector<std::span<FpRecord>> runs;
  for (std::size_t off = 0; off < block.size(); off += m_d) {
    runs.push_back(src.subspan(off, std::min(m_d, block.size() - off)));
  }
  std::vector<MergePiece> pieces;
  while (runs.size() > 1) {
    pieces.clear();
    std::vector<std::span<FpRecord>> next;
    std::size_t out = 0;
    for (std::size_t i = 0; i < runs.size(); i += 2) {
      const std::span<const FpRecord> b =
          i + 1 < runs.size() ? runs[i + 1] : std::span<FpRecord>();
      plan_device_merge(runs[i], b, device_block_records, out, streams,
                        pieces);
      next.push_back(dst.subspan(out, runs[i].size() + b.size()));
      out += next.back().size();
    }
    util::ThreadPool::global().parallel_for(
        pieces.size(), [&pieces, dst](std::size_t i) {
          place_piece(pieces[i], dst.data() + pieces[i].out);
        });
    runs = std::move(next);
    std::swap(src, dst);
  }
  if (src.data() != block.data()) {
    std::copy(src.begin(), src.end(), block.begin());
  }
}

}  // namespace

void device_windowed_merge(
    Workspace& ws, std::span<const FpRecord> a, std::span<const FpRecord> b,
    std::uint64_t device_block_records,
    const std::function<void(std::span<const FpRecord>)>& sink) {
  DeviceStreams streams(*ws.device, false);
  std::vector<MergePiece> pieces;
  std::vector<FpRecord> buffer;
  device_windowed_merge_impl(a, b, device_block_records, sink, streams,
                             pieces, buffer);
}

void sort_host_block(Workspace& ws, std::span<FpRecord> block,
                     std::uint64_t device_block_records) {
  DeviceStreams streams(*ws.device, false);
  sort_host_block_impl(ws, block, device_block_records, streams);
}

namespace {

/// Disk-level Algorithm 1: merge two sorted files into one through host
/// windows of m_h / 2 records, each equalized pair merged on the device.
/// Streamed, both inputs prefetch a window ahead and the output drains
/// behind on background threads while device merges double-buffer across
/// the two streams.
void merge_files(Workspace& ws, const std::filesystem::path& in_a,
                 const std::filesystem::path& in_b,
                 const std::filesystem::path& out_path,
                 const BlockGeometry& geometry, DeviceStreams& streams) {
  const std::size_t half = std::max<std::uint64_t>(
      2, geometry.host_block_records / 2);
  // Streamed, per side up to 2x window live in FileWindow (cursor +
  // carry-over) plus one window of prefetch, and the output stages about
  // one window; synchronous, just the two windows.
  util::TrackedAllocation window_mem(
      *ws.host, (geometry.streamed ? 7 : 2) * half * sizeof(FpRecord));
  const std::size_t prefetch = geometry.streamed ? 1 : 0;
  FileWindow wa(half, in_a, *ws.io, half, prefetch);
  FileWindow wb(half, in_b, *ws.io, half, prefetch);
  io::AsyncRecordWriter<FpRecord> out(out_path, *ws.io, half,
                                      geometry.streamed ? 2 : 0);
  const RecordSink sink = [&out](std::span<const FpRecord> part) {
    out.write(part);
  };
  std::vector<MergePiece> pieces;
  std::vector<FpRecord> buffer;
  merge_windows_loop(wa, wb, sink,
                     [&](std::span<const FpRecord> va,
                         std::span<const FpRecord> vb) {
                       device_windowed_merge_impl(
                           va, vb, geometry.device_block_records, sink,
                           streams, pieces, buffer);
                     });
  for (FileWindow* w : {&wa, &wb}) {
    while (w->fill()) {
      sink(w->view());
      w->consume(w->view().size());
    }
  }
  out.close();
}

/// One sorted level-1 run on its way to disk.
struct RunJob {
  std::filesystem::path path;
  std::vector<FpRecord> block;
  std::string checkpoint_key;
};

/// The level-1 run drain's consumer: write the run, then mark its
/// checkpoint, so a run is never recorded as done before it is durable.
std::function<void(RunJob&)> run_writer(io::IoStats& io,
                                        CheckpointManager* cm) {
  return [&io, cm](RunJob& job) {
    io::write_all_records<FpRecord>(
        job.path, std::span<const FpRecord>(job.block), io);
    if (cm != nullptr) {
      cm->record(job.checkpoint_key, {{"records", job.block.size()}});
    }
  };
}

/// True when `path` exists and holds exactly `records` whole records.
bool file_holds_records(const std::filesystem::path& path,
                        std::uint64_t records) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return !ec && size == records * sizeof(FpRecord);
}

/// Deterministically re-create one level-1 run that a crashed run's merges
/// already consumed: re-read its input slice, sort it, rewrite the run
/// file. Returns false when the input no longer holds the expected slice
/// (the caller then falls back to sorting from scratch).
bool rebuild_run(Workspace& ws, const std::filesystem::path& input,
                 const std::filesystem::path& run_path,
                 std::uint64_t skip_records, std::uint64_t records,
                 const BlockGeometry& geometry, DeviceStreams& streams) {
  util::TrackedAllocation block_mem(*ws.host, records * sizeof(FpRecord));
  std::vector<FpRecord> block;
  block.reserve(records);
  io::RecordReader<FpRecord> reader(input, *ws.io, skip_records);
  while (block.size() < records) {
    if (reader.read(block, records - block.size()) == 0) return false;
  }
  sort_host_block_impl(ws, block, geometry.device_block_records, streams);
  io::write_all_records(run_path, std::span<const FpRecord>(block), *ws.io);
  return true;
}

std::string sort_file_key(const std::filesystem::path& output) {
  return "sort:file:" + output.filename().string();
}

std::string sort_run_key(const std::filesystem::path& output,
                         std::size_t index) {
  return "sort:run:" + output.filename().string() + ":" +
         std::to_string(index);
}

/// Base path for a sort's scratch files (runs, merge generations). Uses the
/// output's stem so scratch names never contain the final ".sorted"
/// extension — fault policies and cleanup globs can target final files
/// without also matching scratch.
std::string scratch_base(const std::filesystem::path& output) {
  return (output.parent_path() / output.stem()).string();
}

/// Submit sorted block i = runs.size() to the run drain as
/// `<output stem>.run<i>`, checkpointed as sort:run:<file>:<i>.
void submit_run(util::Drain<RunJob>& writer,
                const std::filesystem::path& output,
                std::vector<std::filesystem::path>& runs,
                std::vector<FpRecord> block) {
  const std::size_t i = runs.size();
  runs.push_back(scratch_base(output) + ".run" + std::to_string(i));
  writer.submit(RunJob{runs.back(), std::move(block), sort_run_key(output, i)});
}

/// Level 2: pairwise Algorithm-1 merges until one run remains, renamed to
/// `output`. Consumes the run files. Returns the number of merge
/// generations (one extra disk pass each). Shared by external_sort_file
/// and the public merge_sorted_runs so the fused shuffle's merge tree is
/// bit-identical to the staged path's.
unsigned merge_run_generations(Workspace& ws,
                               std::vector<std::filesystem::path> runs,
                               const std::filesystem::path& output,
                               const BlockGeometry& geometry,
                               DeviceStreams& streams) {
  unsigned generation = 0;
  while (runs.size() > 1) {
    std::vector<std::filesystem::path> next;
    for (std::size_t i = 0; i < runs.size(); i += 2) {
      if (i + 1 == runs.size()) {
        next.push_back(runs[i]);
        continue;
      }
      const std::filesystem::path merged =
          scratch_base(output) + ".gen" + std::to_string(generation) + "." +
          std::to_string(i / 2);
      const obs::WallSpan merge_span = obs::wall_span(
          "core.sort", [&] { return "merge:" + merged.filename().string(); });
      merge_files(ws, runs[i], runs[i + 1], merged, geometry, streams);
      std::filesystem::remove(runs[i]);
      std::filesystem::remove(runs[i + 1]);
      next.push_back(merged);
    }
    runs = std::move(next);
    ++generation;
  }
  std::filesystem::rename(runs.front(), output);
  return generation;
}

}  // namespace

SortFileStats external_sort_file(Workspace& ws,
                                 const std::filesystem::path& input,
                                 const std::filesystem::path& output,
                                 const BlockGeometry& geometry) {
  SortFileStats stats;
  const std::filesystem::path run_dir = output.parent_path();
  std::filesystem::create_directories(run_dir);

  const obs::WallSpan file_span = obs::wall_span(
      "core.sort", [&] { return "sort:" + output.filename().string(); });

  CheckpointManager* cm = ws.checkpoint;

  // Whole-file skip: a previous run finished sorting this file (the input
  // partition may already be gone — its contents live in `output`).
  if (cm != nullptr && cm->has(sort_file_key(output))) {
    const auto counters = cm->counters(sort_file_key(output));
    const auto records_it = counters.find("records");
    if (records_it != counters.end() &&
        file_holds_records(output, records_it->second)) {
      stats.records = records_it->second;
      stats.host_blocks =
          static_cast<unsigned>(cm->counter(sort_file_key(output),
                                            "host_blocks"));
      stats.disk_passes =
          static_cast<unsigned>(cm->counter(sort_file_key(output), "passes"));
      stats.restored = true;
      return stats;
    }
  }

  DeviceStreams streams(*ws.device, geometry.streamed);

  // Run-granular resume: reuse intact recorded runs, deterministically
  // rebuild ones a crashed run's merges already consumed, and continue the
  // input scan past everything they cover. Any inconsistency falls back to
  // sorting from scratch (fresh runs simply overwrite stale files).
  std::vector<std::filesystem::path> runs;
  std::uint64_t resume_skip = 0;
  if (cm != nullptr) {
    for (std::size_t i = 0; cm->has(sort_run_key(output, i)); ++i) {
      const std::uint64_t records =
          cm->counter(sort_run_key(output, i), "records");
      const std::filesystem::path run_path =
          scratch_base(output) + ".run" + std::to_string(i);
      if (records == 0 ||
          (!file_holds_records(run_path, records) &&
           !rebuild_run(ws, input, run_path, resume_skip, records, geometry,
                        streams))) {
        runs.clear();
        resume_skip = 0;
        break;
      }
      runs.push_back(run_path);
      resume_skip += records;
    }
  }
  stats.records = resume_skip;

  // Level 1: produce sorted host-block runs. Streamed, this is a software
  // pipeline: block i+1 prefetches while the device sorts block i and run
  // i-1 drains to disk, three host blocks live at steady state against one
  // for the synchronous path.
  {
    util::TrackedAllocation block_mem(
        *ws.host, (geometry.streamed ? 3 : 1) * geometry.host_block_records *
                      sizeof(FpRecord));
    const std::size_t depth = geometry.streamed ? 1 : 0;
    io::RecordReader<FpRecord> reader(input, *ws.io, resume_skip);
    util::Prefetch<std::vector<FpRecord>> blocks(
        [&](std::vector<FpRecord>& block) {
          block.clear();
          return reader.read(block, geometry.host_block_records) > 0;
        },
        depth);
    util::Drain<RunJob> writer(run_writer(*ws.io, cm), depth);
    std::vector<FpRecord> block;
    while (blocks.next(block)) {
      stats.records += block.size();
      sort_host_block_impl(ws, block, geometry.device_block_records,
                           streams);
      submit_run(writer, output, runs, std::move(block));
    }
    writer.finish();
  }
  stats.host_blocks = static_cast<unsigned>(runs.size());
  stats.disk_passes = 1;

  if (runs.empty()) {
    io::RecordWriter<FpRecord> empty(output, *ws.io);
    empty.close();
    if (cm != nullptr) {
      cm->record(sort_file_key(output),
                 {{"records", 0},
                  {"host_blocks", 0},
                  {"passes", stats.disk_passes}});
    }
    return stats;
  }

  // Level 2: pairwise Algorithm-1 merges until one run remains.
  stats.disk_passes +=
      merge_run_generations(ws, std::move(runs), output, geometry, streams);
  if (cm != nullptr) {
    cm->record(sort_file_key(output),
               {{"records", stats.records},
                {"host_blocks", stats.host_blocks},
                {"passes", stats.disk_passes}});
  }
  return stats;
}

struct SortRunBuilder::Impl {
  Workspace ws;  // by value: a snapshot of the pointers, safe across threads
  std::filesystem::path output;
  BlockGeometry geometry;
  std::mutex* device_mutex = nullptr;
  DeviceStreams streams;
  util::Drain<RunJob> writer;
  util::TrackedAllocation mem;
  std::vector<FpRecord> block;
  std::vector<std::filesystem::path> runs;
  std::uint64_t records = 0;
  bool finished = false;

  Impl(Workspace& workspace, std::filesystem::path out,
       const BlockGeometry& geo, std::mutex* dev_mutex)
      : ws(workspace),
        output(std::move(out)),
        geometry(geo),
        device_mutex(dev_mutex),
        streams(*ws.device, geometry.streamed),
        writer(run_writer(*ws.io, ws.checkpoint), geometry.streamed ? 1 : 0),
        // Steady state: one block filling + one sorted block in flight at
        // the run drain (same budget shape as the streamed external sort's
        // pipeline).
        mem(*ws.host, 2 * geometry.host_block_records * sizeof(FpRecord)) {
    std::filesystem::create_directories(output.parent_path());
    block.reserve(geometry.host_block_records);
  }

  void flush_block() {
    if (block.empty()) return;
    {
      std::unique_lock<std::mutex> lock;
      if (device_mutex != nullptr) {
        lock = std::unique_lock<std::mutex>(*device_mutex);
      }
      sort_host_block_impl(ws, block, geometry.device_block_records,
                           streams);
    }
    submit_run(writer, output, runs, std::move(block));
    block = {};
    block.reserve(geometry.host_block_records);
  }
};

SortRunBuilder::SortRunBuilder(Workspace& ws, std::filesystem::path output,
                               const BlockGeometry& geometry,
                               std::mutex* device_mutex)
    : impl_(std::make_unique<Impl>(ws, std::move(output), geometry,
                                   device_mutex)) {}

SortRunBuilder::~SortRunBuilder() {
  if (impl_ != nullptr && !impl_->finished) {
    try {
      finish();
    } catch (...) {
    }
  }
}

void SortRunBuilder::append(std::span<const FpRecord> records) {
  impl_->records += records.size();
  while (!records.empty()) {
    const std::size_t room = static_cast<std::size_t>(
        impl_->geometry.host_block_records - impl_->block.size());
    const std::size_t take = std::min(room, records.size());
    impl_->block.insert(impl_->block.end(), records.begin(),
                        records.begin() + static_cast<std::ptrdiff_t>(take));
    records = records.subspan(take);
    if (impl_->block.size() >= impl_->geometry.host_block_records) {
      impl_->flush_block();
    }
  }
}

void SortRunBuilder::finish() {
  if (impl_->finished) return;
  impl_->flush_block();
  impl_->writer.finish();
  impl_->finished = true;
}

std::uint64_t SortRunBuilder::records() const { return impl_->records; }

const std::vector<std::filesystem::path>& SortRunBuilder::runs() const {
  return impl_->runs;
}

SortFileStats merge_sorted_runs(Workspace& ws,
                                std::vector<std::filesystem::path> runs,
                                const std::filesystem::path& output,
                                const BlockGeometry& geometry) {
  SortFileStats stats;
  stats.host_blocks = static_cast<unsigned>(runs.size());
  stats.disk_passes = 1;  // the run-production pass the builder already paid
  std::filesystem::create_directories(output.parent_path());

  const obs::WallSpan file_span = obs::wall_span(
      "core.sort", [&] { return "sort:" + output.filename().string(); });

  if (runs.empty()) {
    io::RecordWriter<FpRecord> empty(output, *ws.io);
    empty.close();
    return stats;
  }
  for (const auto& run : runs) {
    stats.records += std::filesystem::file_size(run) / sizeof(FpRecord);
  }
  DeviceStreams streams(*ws.device, geometry.streamed);
  stats.disk_passes +=
      merge_run_generations(ws, std::move(runs), output, geometry, streams);
  return stats;
}

SortResult run_sort_phase(Workspace& ws, MapResult& map,
                          const BlockGeometry& geometry) {
  SortResult result;
  const std::filesystem::path sorted_dir = ws.dir / "sorted";
  std::filesystem::create_directories(sorted_dir);
  bool all_restored = true;

  for (unsigned length : map.suffixes->lengths()) {
    SortedPartition part;
    part.length = length;
    part.suffix_records = map.suffixes->count(length);
    part.prefix_records = map.prefixes->count(length);

    part.suffix_file =
        sorted_dir / io::partition_file_name("sfx", length, "sorted");
    part.prefix_file =
        sorted_dir / io::partition_file_name("pfx", length, "sorted");

    const SortFileStats s1 = external_sort_file(
        ws, map.suffixes->path(length), part.suffix_file, geometry);
    map.suffixes->drop(length);
    const SortFileStats s2 = external_sort_file(
        ws, map.prefixes->path(length), part.prefix_file, geometry);
    map.prefixes->drop(length);

    result.records_sorted += s1.records + s2.records;
    result.max_disk_passes =
        std::max({result.max_disk_passes, s1.disk_passes, s2.disk_passes});
    all_restored = all_restored && s1.restored && s2.restored;
    result.partitions.push_back(std::move(part));
  }
  result.resumed = all_restored && !result.partitions.empty();
  LOG_INFO << "sort: " << result.records_sorted << " records, "
           << result.partitions.size() << " partitions, max passes "
           << result.max_disk_passes;
  return result;
}

}  // namespace lasagna::core
