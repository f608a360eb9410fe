#include "core/reduce_phase.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/file_window.hpp"
#include "gpu/stream.hpp"
#include "kernel/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seq/dna.hpp"
#include "util/logging.hpp"

namespace lasagna::core {

namespace {

/// True when the suffix string of `u` (length l) equals the prefix string
/// of `v` (length l) — used in verify mode to count false positives.
bool overlap_is_real(const seq::PackedReads& reads, graph::VertexId u,
                     graph::VertexId v, unsigned l) {
  const std::string su = graph::is_reverse(u)
                             ? reads.decode_rc(graph::read_of(u))
                             : reads.decode(graph::read_of(u));
  const std::string sv = graph::is_reverse(v)
                             ? reads.decode_rc(graph::read_of(v))
                             : reads.decode(graph::read_of(v));
  if (su.size() < l || sv.size() < l) return false;
  return std::equal(su.end() - l, su.end(), sv.begin());
}

/// Candidate matches of one equalized window pair, copied out of the live
/// windows so host insertion can run one window behind the device (the
/// window buffers recycle on the next fill()).
struct PendingMatches {
  std::vector<graph::VertexId> sfx_vertices;
  std::vector<graph::VertexId> pfx_vertices;
  std::vector<gpu::Key128> sfx_fps;  ///< matching fingerprint per suffix row
  std::vector<std::uint32_t> lower;
  std::vector<std::uint32_t> upper;
  bool valid = false;
};

/// Per-partition match state. The device context (whose match buffers the
/// simulated backend allocates once, at the window size) and the host
/// staging vectors are reused for every window of the partition. match()
/// computes window i's bounds on a rotated stream leg and then inserts
/// window i-1's queued edges — the host greedy update the paper keeps off
/// the GPU (III-C) runs in the shadow of the device kernels, and the
/// modeled clock charges max(device, disk, host) for the phase instead of
/// their sum.
class WindowMatcher {
 public:
  WindowMatcher(Workspace& ws, unsigned length, std::size_t window,
                const ReduceOptions& options, graph::StringGraph& graph,
                PartitionReduceStats& stats)
      : length_(length),
        options_(options),
        graph_(graph),
        stats_(stats),
        streams_(*ws.device, options.streamed),
        ctx_{ws.device, &streams_, false, window} {}

  /// Match one pair of equalized windows: device lower/upper bounds for
  /// window i, then host insertion of window i-1's deferred edges.
  /// Insertion order across windows is exactly the synchronous order —
  /// every window's edges are inserted before any later window's.
  void match(std::span<const FpRecord> sfx, std::span<const FpRecord> pfx) {
    if (sfx.empty() || pfx.empty()) return;

    sfx_keys_.resize(sfx.size());
    pfx_keys_.resize(pfx.size());
    for (std::size_t i = 0; i < sfx.size(); ++i) sfx_keys_[i] = sfx[i].fp;
    for (std::size_t i = 0; i < pfx.size(); ++i) pfx_keys_[i] = pfx[i].fp;

    staged_.lower.resize(sfx.size());
    staged_.upper.resize(sfx.size());
    kernel::run_match_bounds(sfx_keys_, pfx_keys_, staged_.lower,
                             staged_.upper, ctx_);

    staged_.sfx_vertices.resize(sfx.size());
    staged_.pfx_vertices.resize(pfx.size());
    staged_.sfx_fps.assign(sfx_keys_.begin(), sfx_keys_.end());
    for (std::size_t i = 0; i < sfx.size(); ++i) {
      staged_.sfx_vertices[i] = sfx[i].vertex;
    }
    for (std::size_t j = 0; j < pfx.size(); ++j) {
      staged_.pfx_vertices[j] = pfx[j].vertex;
    }
    staged_.valid = true;

    flush();                          // insert window i-1 behind the device
    std::swap(pending_, staged_);     // window i becomes the deferred one
  }

  /// All-pairs match of an oversized duplicate-fingerprint run (window
  /// overflow fallback). Deferred edges are drained first so insertion
  /// order matches the synchronous path. The run is one equal-fingerprint
  /// group, so its offers go out in the canonical total order.
  void match_run(const std::vector<FpRecord>& run_sfx,
                 const std::vector<FpRecord>& run_pfx) {
    flush();
    if (run_sfx.empty() || run_pfx.empty()) return;
    group_sfx_.clear();
    group_pfx_.clear();
    for (const FpRecord& s : run_sfx) group_sfx_.push_back(s.vertex);
    for (const FpRecord& p : run_pfx) group_pfx_.push_back(p.vertex);
    offer_group(run_sfx.front().fp);
  }

  /// Insert the deferred window's edges (host greedy update, paper III-C).
  ///
  /// Offers follow a *canonical total order* that is independent of the
  /// record layout: the window equalization guarantees each equal-
  /// fingerprint run is complete on both sides within one match() (or
  /// match_run()) call, so grouping rows by fingerprint here sees every
  /// tied candidate of a group at once. Groups go out in ascending
  /// fingerprint order (layout-invariant — it is the sort key); within a
  /// group, suffix and prefix vertices are each sorted ascending and
  /// offered as nested pairs. Sort-run boundaries, bucket layouts and
  /// window geometry can permute equal-fingerprint records in the sorted
  /// files, but they can no longer permute the offer order — the greedy
  /// edge set is the same on every layout (DESIGN.md section 5).
  void flush() {
    if (!pending_.valid) return;
    const obs::WallSpan span = obs::wall_span(
        "host.insert", [&] { return "insert:l" + std::to_string(length_); },
        {{"rows", static_cast<std::int64_t>(pending_.sfx_vertices.size())}});
    const std::size_t rows = pending_.sfx_vertices.size();
    std::size_t i = 0;
    while (i < rows) {
      std::size_t end = i + 1;
      while (end < rows && pending_.sfx_fps[end] == pending_.sfx_fps[i]) {
        ++end;
      }
      // Equal suffix fingerprints share one [lower, upper) prefix range.
      const std::uint32_t lo = pending_.lower[i];
      const std::uint32_t hi = pending_.upper[i];
      if (lo != hi) {
        group_sfx_.clear();
        group_pfx_.clear();
        for (std::size_t k = i; k < end; ++k) {
          group_sfx_.push_back(pending_.sfx_vertices[k]);
        }
        for (std::uint32_t j = lo; j < hi; ++j) {
          group_pfx_.push_back(pending_.pfx_vertices[j]);
        }
        offer_group(pending_.sfx_fps[i]);
      }
      i = end;
    }
    pending_.valid = false;
  }

 private:
  /// Offer one equal-fingerprint group's pairs in canonical order.
  void offer_group(const gpu::Key128& fp) {
    std::sort(group_sfx_.begin(), group_sfx_.end());
    std::sort(group_pfx_.begin(), group_pfx_.end());
    for (const graph::VertexId u : group_sfx_) {
      for (const graph::VertexId v : group_pfx_) {
        offer(u, v, fp);
      }
    }
  }

  void offer(graph::VertexId u, graph::VertexId v, const gpu::Key128& fp) {
    ++stats_.candidates;
    if (options_.verify_overlaps && options_.reads != nullptr &&
        !overlap_is_real(*options_.reads, u, v, length_)) {
      ++stats_.false_positives;
      return;
    }
    if (options_.candidate_sink) {
      options_.candidate_sink(u, v, static_cast<std::uint16_t>(length_), fp);
    } else if (graph_.try_add_edge(u, v,
                                   static_cast<std::uint16_t>(length_))) {
      ++stats_.accepted;
    }
  }

  unsigned length_;
  const ReduceOptions& options_;
  graph::StringGraph& graph_;
  PartitionReduceStats& stats_;
  gpu::StreamPair streams_;
  kernel::DeviceContext ctx_;
  std::vector<gpu::Key128> sfx_keys_;
  std::vector<gpu::Key128> pfx_keys_;
  std::vector<graph::VertexId> group_sfx_;  ///< tie group, canonical order
  std::vector<graph::VertexId> group_pfx_;
  PendingMatches pending_;  ///< window i-1, awaiting insertion
  PendingMatches staged_;   ///< window i, just bounded on the device
};

/// Core of Algorithm 2. Streamed, both files prefetch on background
/// threads; the record sequence, and so the edge set, is the synchronous
/// path's.
PartitionReduceStats reduce_partition_impl(Workspace& ws,
                                           const SortedPartition& partition,
                                           graph::StringGraph& graph,
                                           const ReduceOptions& options) {
  PartitionReduceStats stats;
  gpu::Device& dev = *ws.device;

  // Windows sized so suffix + prefix keys plus both bound arrays fit the
  // device alongside transfer staging.
  const std::size_t window = std::max<std::size_t>(
      16, dev.memory().capacity() / (8 * sizeof(FpRecord)));
  obs::MetricsRegistry::global()
      .histogram("core.reduce.window_records")
      .record(static_cast<std::int64_t>(window));
  util::TrackedAllocation window_mem(*ws.host,
                                     2 * window * sizeof(FpRecord));

  const std::size_t prefetch = options.streamed ? 2 : 0;
  FileWindow sfx(window, partition.suffix_file, *ws.io, 1 << 16, prefetch);
  FileWindow pfx(window, partition.prefix_file, *ws.io, 1 << 16, prefetch);
  WindowMatcher matcher(ws, partition.length, window, options, graph, stats);
  std::vector<FpRecord> run_sfx;
  std::vector<FpRecord> run_pfx;

  while (true) {
    const bool has_s = sfx.fill();
    const bool has_p = pfx.fill();
    if (!has_s || !has_p) break;  // no further matches possible

    std::span<const FpRecord> vs = sfx.view();
    std::span<const FpRecord> vp = pfx.view();

    // Equalize both windows to the same fingerprint range (Algorithm 2
    // lines 5-7). The boundary fingerprint f = min of last keys may
    // continue beyond a window; its run may only be matched once it is
    // complete on BOTH sides (a side's run is complete if its stream is
    // drained or its window extends past f), otherwise both sides defer
    // the run to the next iteration.
    const gpu::Key128 f = std::min(vs.back().fp, vp.back().fp);
    const bool s_complete = sfx.stream_done() || vs.back().fp != f;
    const bool p_complete = pfx.stream_done() || vp.back().fp != f;
    const bool include_f = s_complete && p_complete;
    auto cut = [&f, include_f](std::span<const FpRecord> w) {
      const FpRecord probe{f, 0, 0};
      return static_cast<std::size_t>(
          (include_f
               ? std::upper_bound(w.begin(), w.end(), probe, fp_less)
               : std::lower_bound(w.begin(), w.end(), probe, fp_less)) -
          w.begin());
    };
    const std::size_t cut_s = cut(vs);
    const std::size_t cut_p = cut(vp);

    if (cut_s == 0 && cut_p == 0) {
      // Both windows start inside the same oversized fingerprint run. All
      // records in the run share fingerprint f, so every (suffix, prefix)
      // pair is a candidate — no device bounds needed; drain the run from
      // both sides in host memory and match all pairs directly.
      run_sfx.clear();
      run_pfx.clear();
      sfx.append_run(f, run_sfx);
      pfx.append_run(f, run_pfx);
      matcher.match_run(run_sfx, run_pfx);
      continue;
    }

    matcher.match(vs.first(cut_s), vp.first(cut_p));
    sfx.consume(cut_s);
    pfx.consume(cut_p);
  }
  matcher.flush();
  // Host insertion stage: each candidate pair is one greedy-graph probe.
  stats.host_bytes = stats.candidates * sizeof(graph::Edge);
  return stats;
}

}  // namespace

PartitionReduceStats reduce_partition(Workspace& ws,
                                      const SortedPartition& partition,
                                      graph::StringGraph& graph,
                                      const ReduceOptions& options) {
  const obs::WallSpan span = obs::wall_span(
      "core.reduce",
      [&] { return "partition:l" + std::to_string(partition.length); },
      {{"length", static_cast<std::int64_t>(partition.length)}});
  return reduce_partition_impl(ws, partition, graph, options);
}

ReduceResult run_reduce_phase(Workspace& ws, const SortResult& sorted,
                              std::uint32_t read_count,
                              const ReduceOptions& options) {
  ReduceResult result;
  result.graph = std::make_unique<graph::StringGraph>(read_count);
  util::TrackedAllocation graph_mem(*ws.host,
                                    result.graph->memory_bytes());

  // Descending length order: the greedy heuristic must see the longest
  // overlaps first (paper III-C / III-E3).
  for (auto it = sorted.partitions.rbegin(); it != sorted.partitions.rend();
       ++it) {
    const PartitionReduceStats stats =
        reduce_partition(ws, *it, *result.graph, options);
    result.candidate_edges += stats.candidates;
    result.accepted_edges += stats.accepted;
    result.false_positives += stats.false_positives;
    result.host_bytes += stats.host_bytes;
  }
  LOG_INFO << "reduce: " << result.candidate_edges << " candidates, "
           << result.accepted_edges << " accepted, "
           << result.false_positives << " false positives";
  return result;
}

}  // namespace lasagna::core
