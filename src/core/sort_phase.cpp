#include "core/sort_phase.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/file_window.hpp"
#include "gpu/primitives.hpp"
#include "gpu/stream.hpp"
#include "io/async_record_stream.hpp"
#include "kernel/backend.hpp"
#include "io/record_stream.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::core {

namespace {

/// Chunk i runs on modeled stream i % 2 (gpu::StreamPair); synchronous mode
/// aliases both legs to the default stream, keeping legacy modeled sums.
using DeviceStreams = gpu::StreamPair;

/// AoS -> SoA split for the device primitives.
void split_records(std::span<const FpRecord> records,
                   std::vector<gpu::Key128>& keys,
                   std::vector<std::uint64_t>& vals) {
  keys.resize(records.size());
  vals.resize(records.size());
  util::ThreadPool::global().parallel_for_chunked(
      records.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          keys[i] = records[i].fp;
          vals[i] = records[i].vertex;
        }
      });
}

void join_records(std::span<const gpu::Key128> keys,
                  std::span<const std::uint64_t> vals,
                  std::span<FpRecord> out) {
  util::ThreadPool::global().parallel_for_chunked(
      keys.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = FpRecord{keys[i], static_cast<std::uint32_t>(vals[i]), 0};
        }
      });
}

/// Device radix sort of one chunk (must fit m_d) through the active kernel
/// backend. On the simulated device the H2D/sort/D2H legs charge the
/// chunk's stream; alternating chunks across the two legs models transfers
/// hidden behind the neighbouring chunk's kernel.
void device_sort_chunk(Workspace& ws, std::span<FpRecord> chunk,
                       DeviceStreams& streams) {
  if (chunk.size() < 2) return;
  std::vector<gpu::Key128> keys;
  std::vector<std::uint64_t> vals;
  split_records(chunk, keys, vals);
  kernel::DeviceContext ctx{ws.device, &streams};
  kernel::run_sort_pairs(keys, vals, ctx);
  join_records(keys, vals, chunk);
}

/// Device merge of two host windows that both fit on the device together.
void device_merge_windows(Workspace& ws, std::span<const FpRecord> a,
                          std::span<const FpRecord> b,
                          std::vector<FpRecord>& out,
                          DeviceStreams& streams) {
  gpu::Device& dev = *ws.device;
  out.resize(a.size() + b.size());
  if (a.empty()) {
    std::copy(b.begin(), b.end(), out.begin());
    return;
  }
  if (b.empty()) {
    std::copy(a.begin(), a.end(), out.begin());
    return;
  }

  std::vector<gpu::Key128> keys_a;
  std::vector<std::uint64_t> vals_a;
  std::vector<gpu::Key128> keys_b;
  std::vector<std::uint64_t> vals_b;
  split_records(a, keys_a, vals_a);
  split_records(b, keys_b, vals_b);

  auto d_ka = dev.alloc<gpu::Key128>(a.size());
  auto d_va = dev.alloc<std::uint64_t>(a.size());
  auto d_kb = dev.alloc<gpu::Key128>(b.size());
  auto d_vb = dev.alloc<std::uint64_t>(b.size());
  auto d_ko = dev.alloc<gpu::Key128>(out.size());
  auto d_vo = dev.alloc<std::uint64_t>(out.size());

  gpu::Stream& s = streams.rotate();
  s.copy_to_device_async(std::span<const gpu::Key128>(keys_a), d_ka.span());
  s.copy_to_device_async(std::span<const std::uint64_t>(vals_a),
                         d_va.span());
  s.copy_to_device_async(std::span<const gpu::Key128>(keys_b), d_kb.span());
  s.copy_to_device_async(std::span<const std::uint64_t>(vals_b),
                         d_vb.span());

  streams.begin_kernel(s);
  {
    gpu::StreamScope scope(dev, s);
    gpu::merge_pairs<std::uint64_t>(
        dev, d_ka.span(), d_va.span(), d_kb.span(), d_vb.span(), d_ko.span(),
        d_vo.span());
  }
  streams.end_kernel(s);

  std::vector<gpu::Key128> keys_out(out.size());
  std::vector<std::uint64_t> vals_out(out.size());
  s.copy_to_host_async(std::span<const gpu::Key128>(d_ko.span()),
                       std::span<gpu::Key128>(keys_out));
  s.copy_to_host_async(std::span<const std::uint64_t>(d_vo.span()),
                       std::span<std::uint64_t>(vals_out));
  join_records(keys_out, vals_out, out);
}

void device_windowed_merge_impl(
    Workspace& ws, std::span<const FpRecord> a, std::span<const FpRecord> b,
    std::uint64_t device_block_records,
    const std::function<void(std::span<const FpRecord>)>& sink,
    DeviceStreams& streams) {
  const std::size_t half =
      std::max<std::size_t>(1, device_block_records / 2);
  std::vector<FpRecord> merged;

  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    std::span<const FpRecord> wa = a.subspan(ia, std::min(half, a.size() - ia));
    std::span<const FpRecord> wb = b.subspan(ib, std::min(half, b.size() - ib));

    // Algorithm 1 lines 5-6: disjoint windows pass straight through.
    if (!fp_less(wb.front(), wa.back()) && wa.back().fp != wb.front().fp) {
      sink(wa);
      ia += wa.size();
      continue;
    }
    if (!fp_less(wa.front(), wb.back()) && wb.back().fp != wa.front().fp) {
      sink(wb);
      ib += wb.size();
      continue;
    }

    // Lines 8-15: equalize so the larger-tailed window is cut at the
    // upper bound of the smaller of the two last keys.
    const gpu::Key128 k = std::min(wa.back().fp, wb.back().fp);
    auto cut = [&k](std::span<const FpRecord> w) {
      const FpRecord probe{k, 0, 0};
      return static_cast<std::size_t>(
          std::upper_bound(w.begin(), w.end(), probe, fp_less) - w.begin());
    };
    if (k == wa.back().fp) {
      wb = wb.first(cut(wb));
    } else {
      wa = wa.first(cut(wa));
    }

    device_merge_windows(ws, wa, wb, merged, streams);
    sink(merged);
    ia += wa.size();
    ib += wb.size();
  }

  if (ia < a.size()) sink(a.subspan(ia));
  if (ib < b.size()) sink(b.subspan(ib));
}

void sort_host_block_impl(Workspace& ws, std::span<FpRecord> block,
                          std::uint64_t device_block_records,
                          DeviceStreams& streams) {
  const std::size_t m_d = std::max<std::uint64_t>(2, device_block_records);
  // Level 2a: device-sort each m_d chunk.
  std::vector<std::span<FpRecord>> runs;
  for (std::size_t off = 0; off < block.size(); off += m_d) {
    auto run = block.subspan(off, std::min(m_d, block.size() - off));
    device_sort_chunk(ws, run, streams);
    runs.push_back(run);
  }

  // Level 2b: iterative pairwise windowed merges until one run remains.
  // Ping-pong between the block storage and a tracked scratch buffer.
  std::vector<FpRecord> scratch;
  while (runs.size() > 1) {
    util::TrackedAllocation scratch_mem(*ws.host,
                                        block.size() * sizeof(FpRecord));
    scratch.resize(block.size());
    std::vector<std::span<FpRecord>> next;
    std::size_t out_off = 0;
    for (std::size_t i = 0; i < runs.size(); i += 2) {
      if (i + 1 == runs.size()) {
        std::copy(runs[i].begin(), runs[i].end(), scratch.begin() + out_off);
        next.push_back(
            std::span<FpRecord>(scratch).subspan(out_off, runs[i].size()));
        out_off += runs[i].size();
        continue;
      }
      const std::size_t merged_size = runs[i].size() + runs[i + 1].size();
      std::size_t cursor = out_off;
      device_windowed_merge_impl(
          ws, runs[i], runs[i + 1], device_block_records,
          [&scratch, &cursor](std::span<const FpRecord> part) {
            std::copy(part.begin(), part.end(), scratch.begin() + cursor);
            cursor += part.size();
          },
          streams);
      next.push_back(
          std::span<FpRecord>(scratch).subspan(out_off, merged_size));
      out_off += merged_size;
    }
    std::copy(scratch.begin(), scratch.end(), block.begin());
    // Spans in `next` point into scratch; rebase them onto `block`.
    runs.clear();
    std::size_t off = 0;
    for (const auto& r : next) {
      runs.push_back(block.subspan(off, r.size()));
      off += r.size();
    }
  }
}

}  // namespace

void device_windowed_merge(
    Workspace& ws, std::span<const FpRecord> a, std::span<const FpRecord> b,
    std::uint64_t device_block_records,
    const std::function<void(std::span<const FpRecord>)>& sink) {
  DeviceStreams streams(*ws.device, false);
  device_windowed_merge_impl(ws, a, b, device_block_records, sink, streams);
}

void sort_host_block(Workspace& ws, std::span<FpRecord> block,
                     std::uint64_t device_block_records) {
  DeviceStreams streams(*ws.device, false);
  sort_host_block_impl(ws, block, device_block_records, streams);
}

namespace {

// FileWindow (core/file_window.hpp) provides the streaming windows; the
// streamed path substitutes the prefetching io::AsyncRecordReader.

/// Algorithm 1's outer loop: merge two sorted windows into `out`, with host
/// windows of m_h / 2 records equalized by upper bound, and the actual
/// merging done by the device-windowed merge.
template <class WindowA, class WindowB, class Writer>
void merge_windows_loop(Workspace& ws, WindowA& wa, WindowB& wb, Writer& out,
                        const BlockGeometry& geometry,
                        DeviceStreams& streams) {
  auto sink = [&out](std::span<const FpRecord> part) { out.write(part); };

  while (true) {
    const bool has_a = wa.fill();
    const bool has_b = wb.fill();
    if (!has_a && !has_b) break;
    if (!has_a) {
      sink(wb.view());
      wb.consume(wb.view().size());
      continue;
    }
    if (!has_b) {
      sink(wa.view());
      wa.consume(wa.view().size());
      continue;
    }

    std::span<const FpRecord> va = wa.view();
    std::span<const FpRecord> vb = wb.view();

    if (!fp_less(vb.front(), va.back()) && va.back().fp != vb.front().fp) {
      sink(va);
      wa.consume(va.size());
      continue;
    }
    if (!fp_less(va.front(), vb.back()) && vb.back().fp != va.front().fp) {
      sink(vb);
      wb.consume(vb.size());
      continue;
    }

    // Equalize: cut the window with the larger last key at the upper bound
    // of the smaller last key (Algorithm 1 lines 8-15). The cut-off tail
    // stays in that side's buffer and is re-considered next iteration, so
    // cutting is always safe — even at end of file.
    const gpu::Key128 k = std::min(va.back().fp, vb.back().fp);
    auto cut = [&k](std::span<const FpRecord> w) {
      const FpRecord probe{k, 0, 0};
      return static_cast<std::size_t>(
          std::upper_bound(w.begin(), w.end(), probe, fp_less) - w.begin());
    };
    if (k == va.back().fp) {
      vb = vb.first(cut(vb));
    } else {
      va = va.first(cut(va));
    }

    device_windowed_merge_impl(ws, va, vb, geometry.device_block_records,
                               sink, streams);
    wa.consume(va.size());
    wb.consume(vb.size());
  }
}

/// Merge two sorted files into one. Streamed mode prefetches both inputs
/// and drains the output on background threads while device merges
/// double-buffer across the two streams.
void merge_files(Workspace& ws, const std::filesystem::path& in_a,
                 const std::filesystem::path& in_b,
                 const std::filesystem::path& out_path,
                 const BlockGeometry& geometry, DeviceStreams& streams) {
  const std::size_t half = std::max<std::uint64_t>(
      2, geometry.host_block_records / 2);

  if (geometry.streamed) {
    // Per side: up to 2x window live in FileWindow (cursor + carry-over)
    // plus one window of prefetch; output stages about one window.
    util::TrackedAllocation window_mem(*ws.host,
                                       7 * half * sizeof(FpRecord));
    FileWindow<io::AsyncRecordReader<FpRecord>> wa(half, in_a, *ws.io, half,
                                                   1);
    FileWindow<io::AsyncRecordReader<FpRecord>> wb(half, in_b, *ws.io, half,
                                                   1);
    io::AsyncRecordWriter<FpRecord> out(out_path, *ws.io, half, 2);
    merge_windows_loop(ws, wa, wb, out, geometry, streams);
    out.close();
    return;
  }

  util::TrackedAllocation window_mem(*ws.host, 2 * half * sizeof(FpRecord));
  FileWindow<io::RecordReader<FpRecord>> wa(half, in_a, *ws.io);
  FileWindow<io::RecordReader<FpRecord>> wb(half, in_b, *ws.io);
  io::RecordWriter<FpRecord> out(out_path, *ws.io);
  merge_windows_loop(ws, wa, wb, out, geometry, streams);
  out.close();
}

/// Background writer for finished level-1 runs: one run write in flight
/// while the device sorts the next host block. Failures surface on the next
/// submit() or on finish().
class RunWriter {
 public:
  explicit RunWriter(io::IoStats& stats)
      : stats_(stats), worker_([this] { run(); }) {}

  ~RunWriter() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  /// `on_done` (optional) runs on the writer thread after the run's bytes
  /// are fully written — the sort phase marks the run's checkpoint there, so
  /// a run is never recorded as done before it is durable.
  void submit(std::filesystem::path path, std::vector<FpRecord> block,
              std::function<void()> on_done = {}) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !job_.has_value() || error_ != nullptr; });
    if (error_ != nullptr) std::rethrow_exception(error_);
    job_.emplace(Job{std::move(path), std::move(block), std::move(on_done)});
    cv_.notify_all();
  }

  /// Wait for the queue to drain and the worker to exit; rethrows failures.
  void finish() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
      return (!job_.has_value() && !busy_) || error_ != nullptr;
    });
    stop_ = true;
    cv_.notify_all();
    lock.unlock();
    if (worker_.joinable()) worker_.join();
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

 private:
  struct Job {
    std::filesystem::path path;
    std::vector<FpRecord> block;
    std::function<void()> on_done;
  };

  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      cv_.wait(lock, [this] { return job_.has_value() || stop_; });
      if (!job_.has_value()) return;  // stop requested, queue empty
      Job job = std::move(*job_);
      job_.reset();
      busy_ = true;
      cv_.notify_all();
      lock.unlock();
      try {
        io::write_all_records<FpRecord>(
            job.path, std::span<const FpRecord>(job.block), stats_);
        if (job.on_done) job.on_done();
      } catch (...) {
        lock.lock();
        error_ = std::current_exception();
        busy_ = false;
        cv_.notify_all();
        return;
      }
      lock.lock();
      busy_ = false;
      cv_.notify_all();
    }
  }

  io::IoStats& stats_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<Job> job_;
  bool busy_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
  std::thread worker_;
};

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
      obs::WallSpan merge_span;
      if (obs::Tracer* tracer = obs::Tracer::active()) {
        merge_span = obs::WallSpan(*tracer, tracer->track("core.sort"),
                                   "merge:" + merged.filename().string());
      }
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

  obs::WallSpan file_span;
  if (obs::Tracer* tracer = obs::Tracer::active()) {
    file_span = obs::WallSpan(*tracer, tracer->track("core.sort"),
                              "sort:" + output.filename().string());
  }

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

  // Level 1: produce sorted host-block runs.
  if (geometry.streamed) {
    // Software pipeline: the reader prefetches block i+1 while the device
    // sorts block i and the RunWriter drains run i-1 — three host blocks
    // live at the pipeline's steady state.
    util::TrackedAllocation block_mem(
        *ws.host, 3 * geometry.host_block_records * sizeof(FpRecord));
    io::AsyncRecordReader<FpRecord> reader(
        input, *ws.io, geometry.host_block_records, 1, resume_skip);
    RunWriter writer(*ws.io);
    while (true) {
      std::vector<FpRecord> block;
      reader.read(block, geometry.host_block_records);
      if (block.empty()) break;
      stats.records += block.size();
      sort_host_block_impl(ws, block, geometry.device_block_records,
                           streams);
      std::filesystem::path run_path =
          scratch_base(output) + ".run" + std::to_string(runs.size());
      std::function<void()> on_done;
      if (cm != nullptr) {
        on_done = [cm, key = sort_run_key(output, runs.size()),
                   records = static_cast<std::uint64_t>(block.size())] {
          cm->record(key, {{"records", records}});
        };
      }
      runs.push_back(run_path);
      writer.submit(std::move(run_path), std::move(block),
                    std::move(on_done));
    }
    writer.finish();
  } else {
    io::RecordReader<FpRecord> reader(input, *ws.io, resume_skip);
    std::vector<FpRecord> block;
    util::TrackedAllocation block_mem(
        *ws.host, geometry.host_block_records * sizeof(FpRecord));
    while (true) {
      block.clear();
      reader.read(block, geometry.host_block_records);
      if (block.empty()) break;
      stats.records += block.size();
      sort_host_block_impl(ws, block, geometry.device_block_records,
                           streams);
      const std::filesystem::path run_path =
          scratch_base(output) + ".run" + std::to_string(runs.size());
      io::write_all_records(run_path, std::span<const FpRecord>(block),
                            *ws.io);
      if (cm != nullptr) {
        cm->record(sort_run_key(output, runs.size()),
                   {{"records", block.size()}});
      }
      runs.push_back(run_path);
    }
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
  RunWriter writer;
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
        writer(*ws.io),
        // Steady state: one block filling + one sorted block in flight at
        // the background writer (same budget shape as the streamed
        // external sort's pipeline).
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
    std::filesystem::path run_path =
        scratch_base(output) + ".run" + std::to_string(runs.size());
    std::function<void()> on_done;
    if (ws.checkpoint != nullptr) {
      on_done = [cm = ws.checkpoint,
                 key = sort_run_key(output, runs.size()),
                 n = static_cast<std::uint64_t>(block.size())] {
        cm->record(key, {{"records", n}});
      };
    }
    runs.push_back(run_path);
    writer.submit(std::move(run_path), std::move(block), std::move(on_done));
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

  obs::WallSpan file_span;
  if (obs::Tracer* tracer = obs::Tracer::active()) {
    file_span = obs::WallSpan(*tracer, tracer->track("core.sort"),
                              "sort:" + output.filename().string());
  }

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

  for (unsigned length : map.suffixes->lengths()) {
    SortedPartition part;
    part.length = length;
    part.suffix_records = map.suffixes->count(length);
    part.prefix_records = map.prefixes->count(length);

    char name[64];
    std::snprintf(name, sizeof(name), "sfx_%05u.sorted", length);
    part.suffix_file = sorted_dir / name;
    std::snprintf(name, sizeof(name), "pfx_%05u.sorted", length);
    part.prefix_file = sorted_dir / name;

    const SortFileStats s1 = external_sort_file(
        ws, map.suffixes->path(length), part.suffix_file, geometry);
    map.suffixes->drop(length);
    const SortFileStats s2 = external_sort_file(
        ws, map.prefixes->path(length), part.prefix_file, geometry);
    map.prefixes->drop(length);

    result.records_sorted += s1.records + s2.records;
    result.max_disk_passes =
        std::max({result.max_disk_passes, s1.disk_passes, s2.disk_passes});

    if (ws.checkpoint != nullptr) {
      std::snprintf(name, sizeof(name), "sort:part:%05u", length);
      ws.checkpoint->record(name,
                            {{"suffix_records", part.suffix_records},
                             {"prefix_records", part.prefix_records},
                             {"suffix_passes", s1.disk_passes},
                             {"prefix_passes", s2.disk_passes}});
    }
    result.partitions.push_back(std::move(part));
  }
  LOG_INFO << "sort: " << result.records_sorted << " records, "
           << result.partitions.size() << " partitions, max passes "
           << result.max_disk_passes;
  return result;
}

}  // namespace lasagna::core
