// Full (non-greedy) string graph with transitive reduction.
//
// The paper's background (II-A2) describes the classical alternative to the
// greedy heuristic: keep *all* overlap edges, then remove transitive edges
// (Myers 2005) — if r_i overlaps r_j and r_k, and r_j overlaps r_k
// "in line", the edge (r_i, r_k) carries no extra information. The reduced
// graph is a production path (`--graph=reduced`): its unambiguous chain
// links feed the same unitig traversal the greedy graph uses.
//
// Determinism contract: the stored adjacency keeps, per (src, dst), the
// largest overlap any insert offered, in both twin directions, with every
// list sorted by (overlap desc, dst asc). Lists are not kept sorted at
// insertion: `add_edge` stages edges, and a batch merge (`settle`) brings
// them in before anything reads the graph. So the stored graph is a pure
// function of the inserted edge multiset, whatever the order, the twin
// presentation or where the batch boundaries fall. `reduce()` marks every
// vertex against the *unreduced* adjacency before any edge is swept, so the
// reduction is a pure per-vertex function of that graph — which is what
// makes the blocked parallel reduction (`reduce_parallel`) and the
// distributed per-owner reduction byte-identical to the sequential pass at
// any thread count, block size or node count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/string_graph.hpp"

namespace lasagna::util {
class ThreadPool;
}  // namespace lasagna::util

namespace lasagna::graph {

/// Canonical adjacency order: descending overlap, ties by ascending dst.
/// Total within one adjacency list (dst is unique per src), so a sorted
/// list is independent of insertion order.
inline bool adjacency_less(const Edge& a, const Edge& b) {
  return a.overlap != b.overlap ? a.overlap > b.overlap : a.dst < b.dst;
}

/// Merge `group` — directed edges that all leave the source of `adj`, in
/// any order, repeats allowed — into `adj`, a list sorted by
/// `adjacency_less` with one edge per dst. Each dst keeps the largest
/// overlap on offer; a stored edge yields only to a strictly larger one.
/// `adj` ends sorted and sized exactly; the cost is linear in its stored
/// length (one binary search of the deduplicated group per stored edge).
/// `group` is reordered. Shared by FullStringGraph's batch merge and the
/// distributed owners, so both build identical adjacency whatever the
/// arrival order.
void merge_out_edges(std::vector<Edge>& adj, std::span<Edge> group);

/// The marking half of Myers' transitive reduction for a single vertex,
/// evaluated against *immutable* (pre-sweep) neighbor adjacency. For edge
/// (v, w): overhang(v, w) = len(v) - overlap. Edge (v, x) is transitive if
/// some w in adj(v) has (w, x) with overhang(v, w) + overhang(w, x) ==
/// overhang(v, x). `adj` must be sorted by `adjacency_less`;
/// `adjacency_of(w)` must return w's sorted, unreduced adjacency and
/// `length_of(w)` its read length. `mark` is caller-owned scratch (one slot
/// per vertex id, all zero on entry, restored to zero on exit).
/// `transitive_out[i]` is set to 1 iff adj[i] is transitive.
///
/// Shared (as a template, so the distributed owner can present its
/// block + halo adjacency without materializing a FullStringGraph) by the
/// sequential, thread-pool and cluster reduction paths: one marking
/// function is the byte-identity argument.
template <typename AdjacencyOf, typename LengthOf>
void mark_transitive_edges(const std::vector<Edge>& adj, std::uint32_t len_v,
                           AdjacencyOf&& adjacency_of, LengthOf&& length_of,
                           std::vector<std::uint8_t>& mark,
                           std::vector<std::uint8_t>& transitive_out) {
  constexpr std::uint8_t kVacant = 0, kInPlay = 1, kEliminated = 2;
  transitive_out.assign(adj.size(), 0);
  if (adj.empty()) return;

  for (const Edge& e : adj) mark[e.dst] = kInPlay;

  // Walk targets from longest overlap (shortest overhang) outward; any
  // in-play vertex reachable with a matching combined overhang is
  // transitive.
  for (const Edge& vw : adj) {
    if (mark[vw.dst] != kInPlay) continue;
    const std::uint32_t overhang_vw = len_v - vw.overlap;
    const std::uint32_t len_w = length_of(vw.dst);
    for (const Edge& wx : adjacency_of(vw.dst)) {
      if (wx.dst >= mark.size() || mark[wx.dst] != kInPlay) continue;
      const std::uint32_t overhang_wx = len_w - wx.overlap;
      // Does v -> w -> x line up exactly with a direct edge v -> x?
      for (const Edge& vx : adj) {
        if (vx.dst != wx.dst) continue;
        if (len_v - vx.overlap == overhang_vw + overhang_wx) {
          mark[wx.dst] = kEliminated;
        }
        break;
      }
    }
  }

  for (std::size_t i = 0; i < adj.size(); ++i) {
    if (mark[adj[i].dst] == kEliminated) transitive_out[i] = 1;
  }
  for (const Edge& e : adj) mark[e.dst] = kVacant;
}

class FullStringGraph {
 public:
  explicit FullStringGraph(std::uint32_t read_count,
                           const std::vector<std::uint32_t>& read_lengths);

  /// Add an overlap edge and its complementary twin. A bad vertex throws;
  /// self and complement loops are dropped. The edge is only staged, in
  /// its canonical presentation (the lower (src, dst) of the twin pair):
  /// once the staging holds `kStagedEdgesPerVertex` edges per vertex, it
  /// settles — both twin directions are grouped by source and merged into
  /// the stored lists in parallel on the global pool (`merge_out_edges`).
  /// Duplicate (src, dst) pairs keep only the longest overlap, so the
  /// result is independent of the direction a caller presents the overlap
  /// in and of the call order. The edge readers (`edge_count`,
  /// `out_edges`, `all_edges`, `reduce`, `reduce_parallel`,
  /// `to_unitig_graph`) settle first, so like add_edge itself, the first
  /// of them after an insert must not race any other call.
  void add_edge(VertexId u, VertexId v, std::uint16_t overlap);

  [[nodiscard]] std::uint32_t vertex_count() const {
    return static_cast<std::uint32_t>(adjacency_.size());
  }
  [[nodiscard]] std::uint64_t edge_count() const;

  /// Outgoing edges of `v`, sorted by `adjacency_less` (an insertion-order
  /// independent, canonical ordering).
  [[nodiscard]] const std::vector<Edge>& out_edges(VertexId v) const {
    if (!staged_.empty()) settle();
    return adjacency_[v];
  }

  /// Flatten the adjacency (ascending src, canonical per-src order; both
  /// twin directions present) — the checkpoint sidecar format.
  [[nodiscard]] std::vector<Edge> all_edges() const;

  /// Trusted bulk import of `all_edges()` output into an empty graph (the
  /// canonical per-src order is preserved verbatim, no re-ranking).
  void import_edges(const std::vector<Edge>& edges);

  [[nodiscard]] std::uint32_t vertex_length(VertexId v) const {
    return vertex_length_[v];
  }

  /// Myers' transitive reduction, two-pass: mark every vertex's transitive
  /// out-edges against the unreduced adjacency, then sweep. Returns the
  /// number of edges removed. The result is a pure function of the edge
  /// set (no cross-vertex sweep-order dependence).
  std::uint64_t reduce();

  /// Blocked parallel reduction: vertex ranges of `block_vertices` ids
  /// (0 = pick from the pool size) are marked concurrently on `pool`, then
  /// swept. Byte-identical to `reduce()` for every thread count and block
  /// size — marking reads only the immutable pre-sweep adjacency.
  std::uint64_t reduce_parallel(util::ThreadPool& pool,
                                std::uint32_t block_vertices = 0);

  /// Unitig edges of the reduced graph: edge (v, w) is kept iff v's
  /// out-degree is 1 and w's in-degree is 1 — the unambiguous chain links
  /// (arXiv:2207.04350's contig-generation walk). Returned as a greedy
  /// StringGraph so the existing traversal and compress phase run
  /// unchanged. Call after reduce().
  [[nodiscard]] StringGraph to_unitig_graph() const;

 private:
  /// Staged edges per vertex that trigger a settle: every settle revisits
  /// most stored lists, so the batch must be large next to the graph,
  /// while the staging (and its twin expansion) stays a few edges per
  /// vertex.
  static constexpr std::size_t kStagedEdgesPerVertex = 4;

  /// Merge the staged edges into the stored lists and free the staging.
  void settle() const;

  std::vector<std::uint32_t> vertex_length_;  // read length per vertex
  // Settled state and the edges not merged into it yet: a cache of the
  // inserted multiset, brought up to date by every reader.
  mutable std::vector<std::vector<Edge>> adjacency_;
  mutable std::vector<Edge> staged_;  // canonical presentations
};

}  // namespace lasagna::graph
