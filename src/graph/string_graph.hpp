// Greedy string graph (paper sections II-A2 and III-C).
//
// Vertices are reads *and* their Watson-Crick complements:
//   vertex id = (read id << 1) | strand, strand 1 = reverse complement,
// so complement_vertex(v) == v ^ 1.
//
// The graph is greedy: each vertex keeps at most one outgoing edge, and
// because every edge (u, v, l) is stored together with its complementary
// edge (v', u', l), the at-most-one-*incoming*-edge invariant follows for
// free — v has an in-edge exactly when v' has an out-edge. One out-degree
// bit-vector therefore suffices, as in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bitvector.hpp"

namespace lasagna::graph {

using VertexId = std::uint32_t;
using ReadId = std::uint32_t;

[[nodiscard]] constexpr VertexId forward_vertex(ReadId read) {
  return read << 1;
}
[[nodiscard]] constexpr VertexId reverse_vertex(ReadId read) {
  return (read << 1) | 1u;
}
[[nodiscard]] constexpr VertexId complement_vertex(VertexId v) {
  return v ^ 1u;
}
[[nodiscard]] constexpr ReadId read_of(VertexId v) { return v >> 1; }
[[nodiscard]] constexpr bool is_reverse(VertexId v) { return (v & 1u) != 0; }

/// A directed overlap edge: the `overlap`-length suffix of `src` equals the
/// `overlap`-length prefix of `dst`.
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  std::uint16_t overlap = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class StringGraph {
 public:
  explicit StringGraph(std::uint32_t read_count);

  [[nodiscard]] std::uint32_t read_count() const { return read_count_; }
  [[nodiscard]] std::uint32_t vertex_count() const { return read_count_ * 2; }
  [[nodiscard]] std::uint64_t edge_count() const { return edge_count_; }

  /// Greedy candidate-edge admission (paper III-C): the edge (u, v, overlap)
  /// is accepted iff neither u nor complement(v) already has an outgoing
  /// edge; on acceptance both (u, v) and (v', u') are recorded. Self-pairs
  /// (v == u or v == u') are always rejected. Returns true if accepted.
  bool try_add_edge(VertexId u, VertexId v, std::uint16_t overlap);

  /// The single outgoing edge of `v`, if any.
  [[nodiscard]] std::optional<Edge> out_edge(VertexId v) const;

  [[nodiscard]] bool has_out_edge(VertexId v) const {
    return out_degree_.test(v);
  }

  /// v has an in-edge iff its complement has an out-edge.
  [[nodiscard]] bool has_in_edge(VertexId v) const {
    return out_degree_.test(complement_vertex(v));
  }

  /// The out-degree bit-vector (the token forwarded between nodes in the
  /// distributed reduce, paper III-E3).
  [[nodiscard]] const util::AtomicBitVector& out_degree_bits() const {
    return out_degree_;
  }

  /// All edges, by ascending source vertex (complementary edges included).
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Bulk-import edges (distributed reduce merges per-node edge sets).
  /// Edges are trusted — no greedy checks; out-degree bits are updated.
  void import_edges(const std::vector<Edge>& edges);

  /// Approximate resident bytes (adjacency + bit-vector).
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  static constexpr VertexId kNoEdge = 0xffffffffu;

  std::uint32_t read_count_;
  std::uint64_t edge_count_ = 0;
  util::AtomicBitVector out_degree_;
  std::vector<VertexId> out_dst_;        // kNoEdge when absent
  std::vector<std::uint16_t> out_len_;
};

}  // namespace lasagna::graph
