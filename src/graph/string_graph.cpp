#include "graph/string_graph.hpp"

#include <stdexcept>

namespace lasagna::graph {

StringGraph::StringGraph(std::uint32_t read_count)
    : read_count_(read_count),
      out_degree_(static_cast<std::size_t>(read_count) * 2),
      out_dst_(static_cast<std::size_t>(read_count) * 2, kNoEdge),
      out_len_(static_cast<std::size_t>(read_count) * 2, 0) {}

bool StringGraph::try_add_edge(VertexId u, VertexId v, std::uint16_t overlap) {
  if (u >= vertex_count() || v >= vertex_count()) {
    throw std::out_of_range("StringGraph::try_add_edge: bad vertex");
  }
  // A read never overlaps itself (l < l_max excludes identity) and an edge
  // to its own complement collapses the complementary-edge invariant.
  if (v == u || v == complement_vertex(u)) return false;

  const VertexId vc = complement_vertex(v);
  if (out_degree_.test(u) || out_degree_.test(vc)) return false;

  out_degree_.set(u);
  out_degree_.set(vc);
  out_dst_[u] = v;
  out_len_[u] = overlap;
  out_dst_[vc] = complement_vertex(u);
  out_len_[vc] = overlap;
  edge_count_ += 2;
  return true;
}

std::optional<Edge> StringGraph::out_edge(VertexId v) const {
  if (v >= vertex_count()) {
    throw std::out_of_range("StringGraph::out_edge: bad vertex");
  }
  if (out_dst_[v] == kNoEdge) return std::nullopt;
  return Edge{v, out_dst_[v], out_len_[v]};
}

std::vector<Edge> StringGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (VertexId v = 0; v < vertex_count(); ++v) {
    if (out_dst_[v] != kNoEdge) {
      out.push_back(Edge{v, out_dst_[v], out_len_[v]});
    }
  }
  return out;
}

void StringGraph::import_edges(const std::vector<Edge>& edges) {
  for (const Edge& e : edges) {
    if (e.src >= vertex_count() || e.dst >= vertex_count()) {
      throw std::out_of_range("StringGraph::import_edges: bad vertex");
    }
    if (out_dst_[e.src] == kNoEdge) ++edge_count_;
    out_dst_[e.src] = e.dst;
    out_len_[e.src] = e.overlap;
    out_degree_.set(e.src);
  }
}

std::uint64_t StringGraph::memory_bytes() const {
  return out_dst_.size() * sizeof(VertexId) +
         out_len_.size() * sizeof(std::uint16_t) + out_degree_.byte_size();
}

}  // namespace lasagna::graph
