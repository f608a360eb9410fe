#include "core/map_phase.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "gpu/stream.hpp"
#include "obs/trace.hpp"
#include "seq/dna.hpp"
#include "util/background.hpp"
#include "util/logging.hpp"

namespace lasagna::core {

namespace {

// The PlaceTable wants the longest read length up front; Illumina reads
// are uniform, so we allocate for the longest supported, reject longer
// reads in prepare_batch and slice later.
constexpr unsigned kMaxReadLength = 512;

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
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t global_id = batch_first + i;
    if (global_id < options.first_read ||
        global_id >= options.first_read + options.max_reads) {
      continue;
    }
    const std::string& read = batch.reads[i];
    if (read.size() > kMaxReadLength) {
      throw std::runtime_error(
          "read " + std::to_string(global_id) + " is " +
          std::to_string(read.size()) +
          " bases; the pipeline supports reads up to " +
          std::to_string(kMaxReadLength) + " bases");
    }
    job.read_ids.push_back(static_cast<std::uint32_t>(global_id));
    strands.push_back(read);
    strands.push_back(seq::reverse_complement(read));
    job.lengths.push_back(static_cast<unsigned>(read.size()));
    job.lengths.push_back(static_cast<unsigned>(read.size()));
  }
  return !job.read_ids.empty();
}

/// Tuple emission, one batch at a time on the emission stage's thread. A
/// batch's tuples are counted per partition key and laid out key-major,
/// strands in order within each key, so each key's run reaches its
/// partition files in one write per role. The bytes appended per
/// partition are the concatenation in global strand order.
class TupleEmitter {
 public:
  TupleEmitter(MapResult& result, const MapOptions& options)
      : result_(result), options_(options) {}

  void emit(const EmissionJob& job) {
    const std::size_t n = job.lengths.size();
    if (n == 0) return;
    const obs::WallSpan span = obs::wall_span(
        "host.emit",
        [&] { return "emit:" + std::to_string(job.read_ids.front()); },
        {{"strands", static_cast<std::int64_t>(n)}});
    if (result_.read_lengths.size() <= job.read_ids.back()) {
      result_.read_lengths.resize(job.read_ids.back() + 1, 0);
    }

    // Keep overlap lengths l in [l_min, len): the l = len partition is
    // dropped to avoid self-loops (paper III-A). So run[l], key l's tuple
    // count, is the number of strands longer than l, and next[l] walks key
    // l's run in the key-major layout.
    const unsigned lo = options_.min_overlap;
    std::array<std::size_t, kMaxReadLength> run{};
    for (const unsigned len : job.lengths) {
      if (len > lo) ++run[len - 1];
    }
    for (unsigned l = kMaxReadLength - 1; l > lo; --l) run[l - 1] += run[l];
    std::array<std::size_t, kMaxReadLength> next{};
    std::size_t total = 0;
    for (unsigned l = lo; l < kMaxReadLength; ++l) {
      next[l] = total;
      total += run[l];
    }
    if (sfx_.size() < total) {
      sfx_.resize(total);
      pfx_.resize(total);
    }

    std::uint64_t bases = 0;
    unsigned max_length = 0;
    for (std::size_t s = 0; s < n; ++s) {
      const unsigned len = job.lengths[s];
      const std::uint32_t read_id = job.read_ids[s / 2];
      const std::uint32_t vertex =
          (read_id << 1) | static_cast<std::uint32_t>(s & 1);
      const gpu::Key128* prefix_row =
          job.fps.prefix.data() + s * job.fps.stride;
      const gpu::Key128* suffix_row =
          job.fps.suffix.data() + s * job.fps.stride;
      for (unsigned l = lo; l < len; ++l) {
        const std::size_t at = next[l]++;
        pfx_[at] = FpRecord{prefix_row[l - 1], vertex, 0};
        sfx_[at] = FpRecord{suffix_row[len - l], vertex, 0};
      }
      max_length = std::max(max_length, len);
      bases += len;
      if ((s & 1) == 0) {
        result_.read_lengths[read_id] = static_cast<std::uint16_t>(len);
      }
    }

    // Runs shrink as the key grows, so the first empty one ends the batch.
    for (unsigned l = lo; l < kMaxReadLength && run[l] > 0; ++l) {
      const std::size_t begin = next[l] - run[l];
      result_.suffixes->append(
          l, std::span<const FpRecord>(sfx_.data() + begin, run[l]));
      result_.prefixes->append(
          l, std::span<const FpRecord>(pfx_.data() + begin, run[l]));
    }
    result_.tuples_emitted += 2 * total;
    result_.total_bases += bases;
    result_.max_read_length = std::max(result_.max_read_length, max_length);
    result_.read_count += static_cast<std::uint32_t>(job.read_ids.size());
  }

 private:
  MapResult& result_;
  const MapOptions& options_;
  /// The batch's tuples, key-major; they keep their capacity across
  /// batches.
  std::vector<FpRecord> sfx_;
  std::vector<FpRecord> pfx_;
};

}  // namespace

std::uint64_t batch_bases_for(std::uint64_t device_capacity) {
  constexpr std::uint64_t per_base = 2 * (1 + 2 * sizeof(gpu::Key128)) + 2;
  const std::uint64_t usable = device_capacity * 7 / 8;
  return std::max<std::uint64_t>(64, usable / per_base);
}

MapResult run_map_phase(Workspace& ws,
                        const std::vector<std::filesystem::path>& fastqs,
                        const MapOptions& options) {
  MapResult result;
  result.suffixes = std::make_unique<io::PartitionSet<FpRecord>>(
      ws.dir / "map", "sfx", *ws.io);
  result.prefixes = std::make_unique<io::PartitionSet<FpRecord>>(
      ws.dir / "map", "pfx", *ws.io);

  const fingerprint::PlaceTable places(options.fingerprints, kMaxReadLength);
  const std::uint64_t batch_bases =
      batch_bases_for(ws.device->memory().capacity());
  TupleEmitter emitter(result, options);
  gpu::StreamPair streams(*ws.device, options.streamed);

  // Streamed, a three-stage software pipeline: the prefetch thread decodes
  // batch i+1 while the device fingerprints batch i (double-buffered across
  // the stream pair) and the emit drain appends batch i-1's tuples to the
  // partition files in batch order, so disk input, device compute and
  // partition output all overlap (paper Fig 8 across the map phase).
  seq::ReadBatchStream stream(fastqs, batch_bases, options.start);
  util::Prefetch<seq::ReadBatch> batches(
      [&stream, &options](seq::ReadBatch& batch) {
        // A sub-range stops after its last read: nothing past it is parsed.
        if (options.max_reads != UINT64_MAX &&
            stream.reads_seen() >= options.first_read + options.max_reads) {
          return false;
        }
        // Wall time spent in disk reads + FASTQ parsing for one batch.
        obs::WallSpan span = obs::wall_span("io.fastq", "decode");
        if (!stream.next(batch)) return false;
        span.add_arg("first_id", static_cast<std::int64_t>(batch.first_id));
        span.add_arg("reads", static_cast<std::int64_t>(batch.size()));
        return true;
      },
      options.streamed ? 2 : 0);
  util::Drain<EmissionJob> emissions(
      [&emitter](EmissionJob& job) { emitter.emit(job); },
      options.streamed ? 1 : 0);

  std::vector<std::string> strands;
  seq::ReadBatch batch;
  while (batches.next(batch)) {
    if (batch.first_id + batch.size() <= options.first_read) continue;
    EmissionJob job;
    if (!prepare_batch(batch, options, strands, job)) continue;
    {
      const obs::WallSpan span = obs::wall_span(
          "core.map",
          [&] { return "batch:" + std::to_string(job.read_ids.front()); },
          {{"strands", static_cast<std::int64_t>(job.lengths.size())}});
      util::TrackedAllocation strand_mem(
          *ws.host, strands.size() * (strands.front().size() + 32));
      job.fps = fingerprint::compute_batch_fingerprints(
          *ws.device, strands, places,
          fingerprint::KernelStrategy::kBlockPerRead, &streams);
    }
    util::TrackedAllocation fp_mem(
        *ws.host, (job.fps.prefix.size() + job.fps.suffix.size()) *
                      sizeof(gpu::Key128));
    emissions.submit(std::move(job));
  }
  emissions.finish();

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
