#include "core/compress_phase.hpp"

#include <algorithm>
#include <numeric>

#include "gpu/primitives.hpp"
#include "io/file_stream.hpp"
#include "graph/traverse.hpp"
#include "seq/dna.hpp"
#include "seq/read_store.hpp"
#include "util/logging.hpp"

namespace lasagna::core {

std::uint64_t compute_n50(std::vector<std::uint64_t> lengths) {
  if (lengths.empty()) return 0;
  std::sort(lengths.begin(), lengths.end(), std::greater<>());
  const std::uint64_t total =
      std::accumulate(lengths.begin(), lengths.end(), std::uint64_t{0});
  std::uint64_t running = 0;
  for (const std::uint64_t len : lengths) {
    running += len;
    if (running * 2 >= total) return len;
  }
  return lengths.back();
}

namespace {

/// Per-vertex placement slot: where in the contig buffer a read's overhang
/// lands, and how many bases to take.
struct Placement {
  std::uint64_t offset = 0;
  std::uint32_t overhang = 0;
  std::uint32_t contig = 0;
};

}  // namespace

CompressResult run_compress_phase(
    Workspace& ws, const graph::StringGraph& graph,
    const std::vector<std::filesystem::path>& fastqs,
    const std::filesystem::path& output, const CompressOptions& options) {
  CompressResult result;
  const gpu::Stream device_stream = gpu::default_stream(*ws.device);

  // Stage 1 (host, multi-threaded in the paper; brief even for the largest
  // dataset): read lengths then path extraction.
  std::vector<std::uint32_t> read_lengths(graph.read_count());
  if (options.read_lengths.size() >= graph.read_count()) {
    for (std::uint32_t id = 0; id < graph.read_count(); ++id) {
      read_lengths[id] = options.read_lengths[id];
    }
  } else {
    seq::ReadBatchStream stream(fastqs, 1 << 20);
    seq::ReadBatch batch;
    while (stream.next(batch)) {
      for (std::uint32_t i = 0; i < batch.size(); ++i) {
        const std::uint32_t id = batch.first_id + i;
        if (id < read_lengths.size()) {
          read_lengths[id] = static_cast<std::uint32_t>(batch.reads[i].size());
        }
      }
    }
  }

  graph::TraverseOptions traverse_options;
  traverse_options.include_singletons = options.include_singletons;
  const std::vector<graph::Path> paths = graph::extract_paths(
      graph, [&read_lengths](graph::ReadId r) { return read_lengths[r]; },
      traverse_options);
  result.paths = paths.size();

  // Stage 2 (device, Fig 7): flatten paths, exclusive-scan the per-path
  // step counts for path offsets, exclusive-scan all overhang lengths for
  // contig base offsets, then scatter each (offset, overhang) slot to its
  // read-ID so the read stream can place substrings directly.
  std::vector<std::uint64_t> steps_per_path(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    steps_per_path[p] = paths[p].size();
  }
  std::vector<std::uint64_t> path_offsets(paths.size());
  const std::uint64_t total_steps = gpu::exclusive_scan<std::uint64_t>(
      device_stream, steps_per_path, path_offsets);

  std::vector<std::uint64_t> overhangs(total_steps);
  std::vector<graph::VertexId> vertices(total_steps);
  std::vector<std::uint32_t> contig_of_step(total_steps);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    for (std::size_t s = 0; s < paths[p].size(); ++s) {
      const std::uint64_t at = path_offsets[p] + s;
      overhangs[at] = paths[p][s].overhang;
      vertices[at] = paths[p][s].vertex;
      contig_of_step[at] = static_cast<std::uint32_t>(p);
    }
  }

  std::vector<std::uint64_t> base_offsets(total_steps);
  const std::uint64_t total_bases = gpu::exclusive_scan<std::uint64_t>(
      device_stream, overhangs, base_offsets);

  // Contig start offsets = base offset of each path's first step.
  std::vector<std::uint64_t> contig_start(paths.size());
  std::vector<std::uint64_t> contig_length(paths.size());
  {
    std::vector<std::uint64_t> starts(paths.size());
    gpu::gather<std::uint64_t, std::uint64_t>(
        device_stream, base_offsets, path_offsets, starts);
    contig_start = std::move(starts);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const std::uint64_t end = p + 1 < paths.size()
                                    ? contig_start[p + 1]
                                    : total_bases;
      contig_length[p] = end - contig_start[p];
    }
  }

  // Scatter slots keyed by vertex id ("using the array of read-IDs as a
  // stencil"). A vertex appears in at most one path (in/out degree <= 1).
  std::vector<Placement> placement(graph.vertex_count());
  std::vector<std::uint8_t> placed(graph.vertex_count(), 0);
  for (std::uint64_t s = 0; s < total_steps; ++s) {
    placement[vertices[s]] =
        Placement{base_offsets[s], static_cast<std::uint32_t>(overhangs[s]),
                  contig_of_step[s]};
    placed[vertices[s]] = 1;
  }
  device_stream.charge_kernel(
      total_steps * (sizeof(Placement) + sizeof(std::uint32_t)), total_steps);

  util::TrackedAllocation contig_mem(*ws.host, total_bases);
  std::string contig_bases(total_bases, 'N');

  // Final pass: stream reads and copy the first `overhang` bases of the
  // relevant strand into the contig buffer.
  {
    seq::ReadBatchStream stream(fastqs, 1 << 20);
    seq::ReadBatch batch;
    while (stream.next(batch)) {
      for (std::uint32_t i = 0; i < batch.size(); ++i) {
        const std::uint32_t id = batch.first_id + i;
        for (unsigned strand = 0; strand < 2; ++strand) {
          const graph::VertexId v = (id << 1) | strand;
          if (v >= placed.size() || placed[v] == 0) continue;
          const Placement& slot = placement[v];
          const std::string bases =
              strand == 0 ? batch.reads[i]
                          : seq::reverse_complement(batch.reads[i]);
          contig_bases.replace(slot.offset, slot.overhang, bases, 0,
                               slot.overhang);
          ++result.reads_placed;
        }
      }
    }
  }

  // Emit FASTA through the injectable write stream, into a temp file that
  // is renamed over the output only on success — a fault (injected or real)
  // mid-write never leaves a partial contig file behind.
  const std::filesystem::path tmp_output = output.string() + ".tmp";
  std::vector<std::uint64_t> kept_lengths;
  try {
    io::WriteOnlyStream out(tmp_output, *ws.io);
    std::string record;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (contig_length[p] < options.min_contig_length) continue;
      record = ">contig_" + std::to_string(p) +
               " reads=" + std::to_string(paths[p].size()) +
               " len=" + std::to_string(contig_length[p]) + '\n';
      const std::string_view view(contig_bases.data() + contig_start[p],
                                  contig_length[p]);
      for (std::size_t off = 0; off < view.size(); off += 70) {
        record += view.substr(off, 70);
        record += '\n';
      }
      out.write_bytes(std::as_bytes(std::span<const char>(record)));
      kept_lengths.push_back(contig_length[p]);
      result.stats.total_bases += contig_length[p];
      result.stats.max_length =
          std::max<std::uint64_t>(result.stats.max_length, contig_length[p]);
    }
    out.close();
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp_output, ec);
    throw;
  }
  std::filesystem::rename(tmp_output, output);
  result.stats.count = kept_lengths.size();
  result.stats.n50 = compute_n50(std::move(kept_lengths));

  LOG_INFO << "compress: " << result.stats.count << " contigs, "
           << result.stats.total_bases << " bases, N50 " << result.stats.n50;
  return result;
}

}  // namespace lasagna::core
