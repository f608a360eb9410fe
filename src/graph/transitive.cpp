#include "graph/transitive.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace lasagna::graph {

FullStringGraph::FullStringGraph(
    std::uint32_t read_count, const std::vector<std::uint32_t>& read_lengths)
    : vertex_length_(static_cast<std::size_t>(read_count) * 2),
      adjacency_(static_cast<std::size_t>(read_count) * 2) {
  if (read_lengths.size() != read_count) {
    throw std::invalid_argument("FullStringGraph: length vector mismatch");
  }
  for (std::uint32_t r = 0; r < read_count; ++r) {
    vertex_length_[forward_vertex(r)] = read_lengths[r];
    vertex_length_[reverse_vertex(r)] = read_lengths[r];
  }
}

void merge_out_edges(std::vector<Edge>& adj, std::span<Edge> group) {
  if (group.empty()) return;
  // Each dst's largest overlap in the group goes first; keep only it.
  std::sort(group.begin(), group.end(), [](const Edge& a, const Edge& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.overlap > b.overlap;
  });
  const auto last =
      std::unique(group.begin(), group.end(),
                  [](const Edge& a, const Edge& b) { return a.dst == b.dst; });
  group = group.first(static_cast<std::size_t>(last - group.begin()));

  // Drop the stored edges the group beats. Where the stored edge holds,
  // the group's edge becomes a copy of it, which the union keeps once.
  std::size_t kept = 0;
  std::size_t copies = 0;
  for (const Edge& e : adj) {
    const auto hit = std::lower_bound(
        group.begin(), group.end(), e.dst,
        [](const Edge& g, VertexId dst) { return g.dst < dst; });
    if (hit != group.end() && hit->dst == e.dst) {
      if (hit->overlap > e.overlap) continue;
      hit->overlap = e.overlap;
      ++copies;
    }
    adj[kept++] = e;
  }
  std::sort(group.begin(), group.end(), adjacency_less);

  std::vector<Edge> merged;
  merged.reserve(kept + group.size() - copies);
  std::set_union(adj.begin(), adj.begin() + static_cast<std::ptrdiff_t>(kept),
                 group.begin(), group.end(), std::back_inserter(merged),
                 adjacency_less);
  adj.swap(merged);
}

void FullStringGraph::add_edge(VertexId u, VertexId v, std::uint16_t overlap) {
  if (u >= vertex_count() || v >= vertex_count()) {
    throw std::out_of_range("FullStringGraph::add_edge: bad vertex");
  }
  if (u == v || v == complement_vertex(u)) return;

  // Stage the twin with the lower src; without loops the srcs differ.
  const VertexId tu = complement_vertex(v);
  const std::size_t limit = kStagedEdgesPerVertex * vertex_count();
  if (staged_.empty()) staged_.reserve(limit);
  staged_.push_back(tu < u ? Edge{tu, complement_vertex(u), overlap}
                           : Edge{u, v, overlap});
  if (staged_.size() >= limit) settle();
}

void FullStringGraph::settle() const {
  if (staged_.empty()) return;
  const std::size_t n = adjacency_.size();
  // Counting sort of both twin directions by source: `first[v]` is where
  // v's group starts in `grouped`, `first[n]` its end.
  std::vector<std::size_t> first(n + 1, 0);
  for (const Edge& e : staged_) {
    ++first[e.src + 1];
    ++first[complement_vertex(e.dst) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<Edge> grouped(first[n]);
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  for (const Edge& e : staged_) {
    grouped[next[e.src]++] = e;
    const VertexId twin = complement_vertex(e.dst);
    grouped[next[twin]++] = Edge{twin, complement_vertex(e.src), e.overlap};
  }
  std::vector<Edge>().swap(staged_);

  util::ThreadPool::global().parallel_for_chunked(
      n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
          merge_out_edges(adjacency_[v],
                          std::span<Edge>(grouped).subspan(
                              first[v], first[v + 1] - first[v]));
        }
      });
}

std::uint64_t FullStringGraph::edge_count() const {
  settle();
  std::uint64_t total = 0;
  for (const auto& adj : adjacency_) total += adj.size();
  return total;
}

std::vector<Edge> FullStringGraph::all_edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  for (const auto& adj : adjacency_) {
    out.insert(out.end(), adj.begin(), adj.end());
  }
  return out;
}

void FullStringGraph::import_edges(const std::vector<Edge>& edges) {
  for (const Edge& e : edges) {
    if (e.src >= vertex_count() || e.dst >= vertex_count()) {
      throw std::out_of_range("FullStringGraph::import_edges: bad vertex");
    }
    adjacency_[e.src].push_back(e);
  }
}

std::uint64_t FullStringGraph::reduce() {
  settle();
  // Pass 1: mark. Every vertex is classified against the unreduced
  // adjacency, so no vertex observes another's sweep.
  const std::uint32_t n = vertex_count();
  std::vector<std::uint8_t> mark(n, 0);
  std::vector<std::vector<std::uint8_t>> transitive(n);
  auto adjacency_of = [this](VertexId w) -> const std::vector<Edge>& {
    return adjacency_[w];
  };
  auto length_of = [this](VertexId w) { return vertex_length_[w]; };
  for (VertexId v = 0; v < n; ++v) {
    mark_transitive_edges(adjacency_[v], vertex_length_[v], adjacency_of,
                          length_of, mark, transitive[v]);
  }

  // Pass 2: sweep.
  std::uint64_t removed = 0;
  for (VertexId v = 0; v < n; ++v) {
    auto& adj = adjacency_[v];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (transitive[v][i] == 0) adj[keep++] = adj[i];
    }
    removed += adj.size() - keep;
    adj.resize(keep);
  }
  return removed;
}

std::uint64_t FullStringGraph::reduce_parallel(util::ThreadPool& pool,
                                               std::uint32_t block_vertices) {
  settle();
  const std::uint32_t n = vertex_count();
  if (n == 0) return 0;
  if (block_vertices == 0) {
    // ~4 blocks per worker: enough slack for stragglers on skewed
    // adjacency without drowning in per-block scratch resets.
    const std::uint32_t per_worker =
        static_cast<std::uint32_t>(pool.size() * 4);
    block_vertices = std::max<std::uint32_t>(1, (n + per_worker - 1) /
                                                    std::max(1u, per_worker));
  }
  const std::uint32_t blocks = (n + block_vertices - 1) / block_vertices;

  // Pass 1: mark blocks concurrently. The flag matrix is the only output;
  // adjacency stays immutable until every block is done, which is the
  // whole byte-identity argument — each vertex's flags are the same pure
  // function `reduce()` computes.
  std::vector<std::vector<std::uint8_t>> transitive(n);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    const VertexId begin = b * block_vertices;
    const VertexId end = std::min<std::uint64_t>(
        n, static_cast<std::uint64_t>(begin) + block_vertices);
    pool.submit([this, begin, end, n, &transitive] {
      std::vector<std::uint8_t> mark(n, 0);
      auto adjacency_of = [this](VertexId w) -> const std::vector<Edge>& {
        return adjacency_[w];
      };
      auto length_of = [this](VertexId w) { return vertex_length_[w]; };
      for (VertexId v = begin; v < end; ++v) {
        mark_transitive_edges(adjacency_[v], vertex_length_[v], adjacency_of,
                              length_of, mark, transitive[v]);
      }
    });
  }
  pool.wait_idle();

  // Pass 2: sweep blocks concurrently; per-block removal counts are summed
  // in block order.
  std::vector<std::uint64_t> block_removed(blocks, 0);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    const VertexId begin = b * block_vertices;
    const VertexId end = std::min<std::uint64_t>(
        n, static_cast<std::uint64_t>(begin) + block_vertices);
    pool.submit([this, begin, end, b, &transitive, &block_removed] {
      std::uint64_t removed = 0;
      for (VertexId v = begin; v < end; ++v) {
        auto& adj = adjacency_[v];
        std::size_t keep = 0;
        for (std::size_t i = 0; i < adj.size(); ++i) {
          if (transitive[v][i] == 0) adj[keep++] = adj[i];
        }
        removed += adj.size() - keep;
        adj.resize(keep);
      }
      block_removed[b] = removed;
    });
  }
  pool.wait_idle();

  std::uint64_t removed = 0;
  for (const std::uint64_t r : block_removed) removed += r;
  return removed;
}

StringGraph FullStringGraph::to_unitig_graph() const {
  settle();
  std::vector<std::uint32_t> in_degree(vertex_count(), 0);
  for (const auto& adj : adjacency_) {
    for (const Edge& e : adj) ++in_degree[e.dst];
  }
  StringGraph unitigs(vertex_count() / 2);
  // Ascending vertex order; each qualifying src contributes exactly one
  // edge, so this equals inserting the qualifying edge set sorted by src —
  // the order the distributed stitch superstep reproduces.
  for (VertexId v = 0; v < vertex_count(); ++v) {
    if (adjacency_[v].size() != 1) continue;
    const Edge& e = adjacency_[v].front();
    if (in_degree[e.dst] != 1) continue;
    unitigs.try_add_edge(v, e.dst, e.overlap);
  }
  return unitigs;
}

}  // namespace lasagna::graph
