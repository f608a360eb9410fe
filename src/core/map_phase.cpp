#include "core/map_phase.hpp"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "gpu/stream.hpp"
#include "obs/trace.hpp"
#include "seq/async_batch_stream.hpp"
#include "seq/dna.hpp"
#include "seq/read_store.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::core {

namespace {

// The PlaceTable wants the longest read length up front; Illumina reads
// are uniform, so we allocate for the longest supported and slice later.
constexpr unsigned kMaxReadLength = 512;

/// Batch size in *input* bases: each input base occupies two strands
/// (forward + reverse complement) on the device, and each strand base
/// costs 1 byte of codes plus two 16-byte fingerprints; keep 1/8 of the
/// device free for the lengths array and allocator slack.
std::uint64_t batch_bases_for(const gpu::Device& dev) {
  constexpr std::uint64_t per_base = 2 * (1 + 2 * sizeof(gpu::Key128)) + 2;
  const std::uint64_t usable = dev.memory().capacity() * 7 / 8;
  return std::max<std::uint64_t>(64, usable / per_base);
}

/// One batch's payload between the fingerprint stage and the emission
/// stage: everything emission needs, with the strand strings dropped.
struct EmissionJob {
  std::vector<unsigned> lengths;        ///< per strand (2 per read)
  std::vector<std::uint32_t> read_ids;  ///< global id per read
  fingerprint::BatchFingerprints fps;
};

/// Range-filter one input batch and build its interleaved strands (forward
/// at 2i, reverse complement at 2i+1, matching the vertex ids). Returns
/// false when no read of the batch falls in the assigned range.
bool prepare_batch(const seq::ReadBatch& batch, const MapOptions& options,
                   std::vector<std::string>& strands, EmissionJob& job) {
  const std::uint64_t batch_first = batch.first_id;
  strands.clear();
  job.lengths.clear();
  job.read_ids.clear();
  std::vector<std::uint32_t> keep;
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t global_id = batch_first + i;
    if (global_id < options.first_read ||
        global_id >= options.first_read + options.max_reads) {
      continue;
    }
    if (batch.reads[i].size() > std::numeric_limits<std::uint16_t>::max()) {
      // read_lengths stores uint16; a silent cast would corrupt every
      // overhang computed downstream.
      throw std::runtime_error(
          "read " + std::to_string(global_id) + " is " +
          std::to_string(batch.reads[i].size()) +
          " bases; the pipeline supports reads up to 65535 bases");
    }
    keep.push_back(i);
    job.read_ids.push_back(static_cast<std::uint32_t>(global_id));
  }
  if (keep.empty()) return false;

  strands.resize(keep.size() * 2);
  job.lengths.resize(keep.size() * 2);
  util::ThreadPool::global().parallel_for_chunked(
      keep.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::string& read = batch.reads[keep[i]];
          strands[2 * i] = read;
          strands[2 * i + 1] = seq::reverse_complement(read);
          job.lengths[2 * i] = static_cast<unsigned>(read.size());
          job.lengths[2 * i + 1] = static_cast<unsigned>(read.size());
        }
      });
  return true;
}

/// Deterministic parallel tuple emission: the per-strand loop is split into
/// contiguous strand chunks staged independently on the thread pool, then
/// drained to the partition sets chunk-by-chunk in ascending key order.
/// Because chunks are contiguous and drained in order, the bytes appended
/// per partition are the concatenation in global strand order — identical
/// for any chunk count (and therefore any pool size), and identical to the
/// old serial loop.
class TupleEmitter {
 public:
  TupleEmitter(MapResult& result, const MapOptions& options)
      : result_(result), options_(options) {}

  /// Emit one batch's tuples (runs on the caller's thread; parallel inside).
  void emit(const EmissionJob& job) {
    const std::size_t n = job.lengths.size();
    if (n == 0) return;
    obs::WallSpan span;
    if (obs::Tracer* tracer = obs::Tracer::active()) {
      span = obs::WallSpan(*tracer, tracer->track("host.emit"),
                           "emit:" + std::to_string(job.read_ids.front()),
                           {{"strands", static_cast<std::int64_t>(n)}});
    }
    const std::size_t chunk_count = options_.emission_chunks > 0
                                        ? options_.emission_chunks
                                        : util::ThreadPool::global().size() * 4;
    const std::size_t chunks = std::min(n, std::max<std::size_t>(1, chunk_count));
    const std::size_t step = (n + chunks - 1) / chunks;

    if (stages_.size() < chunks) stages_.resize(chunks);
    for (std::size_t c = 0; c < chunks; ++c) stages_[c].reset();

    if (result_.read_lengths.size() <= job.read_ids.back()) {
      result_.read_lengths.resize(job.read_ids.back() + 1, 0);
    }

    util::ThreadPool::global().parallel_for_chunked(
        chunks, [&](std::size_t cb, std::size_t ce) {
          for (std::size_t c = cb; c < ce; ++c) {
            stage_chunk(job, c * step, std::min(n, c * step + step),
                        stages_[c]);
          }
        });

    // Deterministic drain: ascending key, then ascending chunk.
    for (std::size_t key = 0; key < kMaxReadLength; ++key) {
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto& sfx = stages_[c].sfx[key];
        if (!sfx.empty()) {
          result_.suffixes->append(static_cast<unsigned>(key),
                                   std::span<const FpRecord>(sfx));
        }
      }
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto& pfx = stages_[c].pfx[key];
        if (!pfx.empty()) {
          result_.prefixes->append(static_cast<unsigned>(key),
                                   std::span<const FpRecord>(pfx));
        }
      }
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      result_.tuples_emitted += stages_[c].tuples;
      result_.total_bases += stages_[c].bases;
      result_.max_read_length =
          std::max(result_.max_read_length, stages_[c].max_length);
    }
    result_.read_count += static_cast<std::uint32_t>(job.read_ids.size());
  }

 private:
  /// Flat indexed-by-partition-key staging for one strand chunk (replaces
  /// the old std::map<unsigned, std::vector<FpRecord>>: partition keys are
  /// dense in [0, kMaxReadLength), so direct indexing beats the
  /// tree on every lookup of the hot emission loop). Vectors keep their
  /// capacity across batches.
  struct ChunkStage {
    std::vector<std::vector<FpRecord>> sfx;
    std::vector<std::vector<FpRecord>> pfx;
    std::uint64_t tuples = 0;
    std::uint64_t bases = 0;
    unsigned max_length = 0;

    void reset() {
      sfx.resize(kMaxReadLength);
      pfx.resize(kMaxReadLength);
      for (auto& v : sfx) v.clear();
      for (auto& v : pfx) v.clear();
      tuples = 0;
      bases = 0;
      max_length = 0;
    }
  };

  void stage_chunk(const EmissionJob& job, std::size_t begin, std::size_t end,
                   ChunkStage& stage) {
    for (std::size_t s = begin; s < end; ++s) {
      const unsigned len = job.lengths[s];
      const std::uint32_t read_id = job.read_ids[s / 2];
      const std::uint32_t vertex =
          (read_id << 1) | static_cast<std::uint32_t>(s & 1);
      const gpu::Key128* prefix_row =
          job.fps.prefix.data() + s * job.fps.stride;
      const gpu::Key128* suffix_row =
          job.fps.suffix.data() + s * job.fps.stride;

      // Keep overlap lengths l in [l_min, len): the l = len partition is
      // dropped to avoid self-loops (paper III-A).
      for (unsigned l = options_.min_overlap; l < len; ++l) {
        const gpu::Key128 pfp = prefix_row[l - 1];
        const gpu::Key128 sfp = suffix_row[len - l];
        stage.pfx[l].push_back(FpRecord{pfp, vertex, 0});
        stage.sfx[l].push_back(FpRecord{sfp, vertex, 0});
        stage.tuples += 2;
      }
      stage.max_length = std::max(stage.max_length, len);
      stage.bases += len;
      if ((s & 1) == 0) {
        // Chunks cover disjoint strand ranges, so each read's slot is
        // written by exactly one chunk.
        result_.read_lengths[read_id] = static_cast<std::uint16_t>(len);
      }
    }
  }

  MapResult& result_;
  const MapOptions& options_;
  std::vector<ChunkStage> stages_;
};

/// Background drain stage of the streamed map pipeline: one emission job in
/// flight while the device fingerprints the next batch. Jobs are processed
/// strictly FIFO, so partition appends happen in batch order — identical to
/// the synchronous path. Failures surface on the next submit() or finish().
class EmitWorker {
 public:
  explicit EmitWorker(TupleEmitter& emitter)
      : emitter_(emitter), worker_([this] { run(); }) {}

  ~EmitWorker() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  void submit(EmissionJob job) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !job_.has_value() || error_ != nullptr; });
    if (error_ != nullptr) std::rethrow_exception(error_);
    job_.emplace(std::move(job));
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
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      cv_.wait(lock, [this] { return job_.has_value() || stop_; });
      if (!job_.has_value()) return;  // stop requested, queue empty
      EmissionJob job = std::move(*job_);
      job_.reset();
      busy_ = true;
      cv_.notify_all();
      lock.unlock();
      try {
        emitter_.emit(job);
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

  TupleEmitter& emitter_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<EmissionJob> job_;
  bool busy_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
  std::thread worker_;
};

}  // namespace

MapResult run_map_phase(Workspace& ws,
                        const std::vector<std::filesystem::path>& fastqs,
                        const MapOptions& options) {
  MapResult result;
  result.suffixes = std::make_unique<io::PartitionSet<FpRecord>>(
      ws.dir / "map", "sfx", *ws.io);
  result.prefixes = std::make_unique<io::PartitionSet<FpRecord>>(
      ws.dir / "map", "pfx", *ws.io);

  const fingerprint::PlaceTable places(options.fingerprints, kMaxReadLength);
  const std::uint64_t batch_bases = batch_bases_for(*ws.device);
  TupleEmitter emitter(result, options);
  gpu::StreamPair streams(*ws.device, options.streamed);

  std::vector<std::string> strands;
  seq::ReadBatch batch;

  auto fingerprint_batch = [&](EmissionJob& job) {
    obs::WallSpan span;
    if (obs::Tracer* tracer = obs::Tracer::active()) {
      span = obs::WallSpan(
          *tracer, tracer->track("core.map"),
          "batch:" + std::to_string(job.read_ids.front()),
          {{"strands", static_cast<std::int64_t>(job.lengths.size())}});
    }
    util::TrackedAllocation strand_mem(
        *ws.host, strands.size() * (strands.front().size() + 32));
    job.fps = fingerprint::compute_batch_fingerprints(
        *ws.device, strands, places, options.strategy,
        options.streamed ? &streams : nullptr);
  };

  if (options.streamed) {
    // Three-stage software pipeline: the background stream decodes batch
    // i+1 while the device fingerprints batch i (double-buffered across the
    // stream pair) and the emit worker drains batch i-1's tuples to the
    // partition files — so at steady state disk input, device compute and
    // partition output all overlap (paper Fig 8 across the map phase).
    seq::AsyncReadBatchStream stream(fastqs, batch_bases);
    EmitWorker worker(emitter);
    while (stream.next(batch)) {
      const std::uint64_t batch_first = batch.first_id;
      if (batch_first + batch.size() <= options.first_read) continue;
      if (options.max_reads != UINT64_MAX &&
          batch_first >= options.first_read + options.max_reads) {
        break;
      }
      EmissionJob job;
      if (!prepare_batch(batch, options, strands, job)) continue;
      fingerprint_batch(job);
      util::TrackedAllocation fp_mem(
          *ws.host, (job.fps.prefix.size() + job.fps.suffix.size()) *
                        sizeof(gpu::Key128));
      worker.submit(std::move(job));
    }
    worker.finish();
  } else {
    seq::ReadBatchStream stream(fastqs, batch_bases);
    while (stream.next(batch)) {
      const std::uint64_t batch_first = batch.first_id;
      if (batch_first + batch.size() <= options.first_read) continue;
      if (options.max_reads != UINT64_MAX &&
          batch_first >= options.first_read + options.max_reads) {
        break;
      }
      EmissionJob job;
      if (!prepare_batch(batch, options, strands, job)) continue;
      fingerprint_batch(job);
      util::TrackedAllocation fp_mem(
          *ws.host, (job.fps.prefix.size() + job.fps.suffix.size()) *
                        sizeof(gpu::Key128));
      emitter.emit(job);
    }
  }

  // total_bases counted both strands; report input bases (one strand).
  result.total_bases /= 2;
  // Host emission stage: every tuple is staged once and appended once.
  result.host_bytes = result.tuples_emitted * sizeof(FpRecord);
  result.suffixes->finalize();
  result.prefixes->finalize();
  LOG_INFO << "map: " << result.read_count << " reads, "
           << result.tuples_emitted << " tuples";
  return result;
}

}  // namespace lasagna::core
