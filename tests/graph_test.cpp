#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "graph/string_graph.hpp"
#include "graph/transitive.hpp"
#include "graph/traverse.hpp"

namespace lasagna::graph {
namespace {

TEST(VertexEncoding, RoundTrips) {
  EXPECT_EQ(forward_vertex(5), 10u);
  EXPECT_EQ(reverse_vertex(5), 11u);
  EXPECT_EQ(read_of(forward_vertex(5)), 5u);
  EXPECT_EQ(read_of(reverse_vertex(5)), 5u);
  EXPECT_EQ(complement_vertex(forward_vertex(5)), reverse_vertex(5));
  EXPECT_FALSE(is_reverse(forward_vertex(3)));
  EXPECT_TRUE(is_reverse(reverse_vertex(3)));
}

TEST(StringGraph, AddsComplementaryEdgePairs) {
  StringGraph g(4);
  EXPECT_TRUE(g.try_add_edge(forward_vertex(0), forward_vertex(1), 50));
  EXPECT_EQ(g.edge_count(), 2u);

  const auto e = g.out_edge(forward_vertex(0));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->dst, forward_vertex(1));
  EXPECT_EQ(e->overlap, 50u);

  // Complementary edge: (1', 0', 50).
  const auto ec = g.out_edge(reverse_vertex(1));
  ASSERT_TRUE(ec.has_value());
  EXPECT_EQ(ec->dst, reverse_vertex(0));
  EXPECT_EQ(ec->overlap, 50u);
}

TEST(StringGraph, GreedyRejectsSecondOutEdge) {
  StringGraph g(4);
  EXPECT_TRUE(g.try_add_edge(forward_vertex(0), forward_vertex(1), 60));
  // u already has an out-edge.
  EXPECT_FALSE(g.try_add_edge(forward_vertex(0), forward_vertex(2), 50));
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(StringGraph, GreedyRejectsSecondInEdge) {
  StringGraph g(4);
  EXPECT_TRUE(g.try_add_edge(forward_vertex(0), forward_vertex(1), 60));
  // v=1 already has an in-edge (its complement has an out-edge).
  EXPECT_FALSE(g.try_add_edge(forward_vertex(2), forward_vertex(1), 50));
  EXPECT_TRUE(g.try_add_edge(forward_vertex(1), forward_vertex(2), 40));
}

TEST(StringGraph, RejectsSelfAndComplementSelfLoops) {
  StringGraph g(2);
  EXPECT_FALSE(g.try_add_edge(forward_vertex(0), forward_vertex(0), 10));
  EXPECT_FALSE(g.try_add_edge(forward_vertex(0), reverse_vertex(0), 10));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(StringGraph, InOutDegreeInvariantHoldsUnderRandomLoad) {
  // Property test: after arbitrary candidate streams, every vertex has
  // <= 1 out-edge and <= 1 in-edge, and edges come in complement pairs.
  std::mt19937_64 rng(99);
  StringGraph g(100);
  std::uniform_int_distribution<std::uint32_t> vert(0, 199);
  for (int i = 0; i < 5000; ++i) {
    g.try_add_edge(vert(rng), vert(rng),
                   static_cast<std::uint16_t>(1 + rng() % 80));
  }
  std::vector<int> in_degree(200, 0);
  for (const Edge& e : g.edges()) {
    ++in_degree[e.dst];
    // Complement pair must exist with identical overlap.
    const auto twin = g.out_edge(complement_vertex(e.dst));
    ASSERT_TRUE(twin.has_value());
    EXPECT_EQ(twin->dst, complement_vertex(e.src));
    EXPECT_EQ(twin->overlap, e.overlap);
  }
  for (int d : in_degree) EXPECT_LE(d, 1);
}

TEST(StringGraph, ImportEdgesRebuildsAdjacency) {
  StringGraph g(4);
  g.try_add_edge(forward_vertex(0), forward_vertex(1), 42);
  StringGraph h(4);
  h.import_edges(g.edges());
  EXPECT_EQ(h.edge_count(), 2u);
  EXPECT_EQ(h.out_edge(forward_vertex(0))->dst, forward_vertex(1));
  EXPECT_TRUE(h.has_in_edge(forward_vertex(1)));
}

// -- traversal ------------------------------------------------------------

std::uint32_t fixed_len(ReadId) { return 100; }

TEST(Traverse, LinearChainBecomesOnePath) {
  StringGraph g(5);
  // 0 -> 1 -> 2 -> 3 -> 4 with overlap 60 => overhang 40 each.
  for (ReadId r = 0; r + 1 < 5; ++r) {
    ASSERT_TRUE(g.try_add_edge(forward_vertex(r), forward_vertex(r + 1), 60));
  }
  const auto paths =
      extract_paths(g, fixed_len, {.include_singletons = false});
  ASSERT_EQ(paths.size(), 1u);
  const Path& p = paths[0];
  ASSERT_EQ(p.size(), 5u);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    EXPECT_EQ(p[i].overhang, 40u);
  }
  EXPECT_EQ(p.back().overhang, 100u);
  EXPECT_EQ(path_contig_length(p), 4 * 40 + 100u);
}

TEST(Traverse, ComplementTwinIsDeduplicated) {
  StringGraph g(3);
  g.try_add_edge(forward_vertex(0), forward_vertex(1), 70);
  g.try_add_edge(forward_vertex(1), forward_vertex(2), 70);
  TraverseOptions opts;
  opts.include_singletons = false;
  opts.dedupe_complements = true;
  EXPECT_EQ(extract_paths(g, fixed_len, opts).size(), 1u);
  opts.dedupe_complements = false;
  EXPECT_EQ(extract_paths(g, fixed_len, opts).size(), 2u);
}

TEST(Traverse, SingletonHandling) {
  StringGraph g(3);
  g.try_add_edge(forward_vertex(0), forward_vertex(1), 50);
  TraverseOptions opts;
  opts.include_singletons = true;
  const auto paths = extract_paths(g, fixed_len, opts);
  // One 2-read path + read 2 as a singleton.
  ASSERT_EQ(paths.size(), 2u);
  const auto& singleton =
      paths[0].size() == 1 ? paths[0] : paths[1];
  EXPECT_EQ(singleton.size(), 1u);
  EXPECT_EQ(singleton[0].overhang, 100u);
  EXPECT_EQ(read_of(singleton[0].vertex), 2u);

  opts.include_singletons = false;
  EXPECT_EQ(extract_paths(g, fixed_len, opts).size(), 1u);
}

TEST(Traverse, BranchingForbiddenByConstruction) {
  // The greedy graph cannot branch, so every vertex appears in at most one
  // path; verify on a random graph.
  std::mt19937_64 rng(5);
  StringGraph g(200);
  std::uniform_int_distribution<std::uint32_t> vert(0, 399);
  for (int i = 0; i < 2000; ++i) {
    g.try_add_edge(vert(rng), vert(rng), 50);
  }
  TraverseOptions opts;
  opts.include_singletons = true;
  opts.dedupe_complements = false;
  std::vector<int> seen(400, 0);
  for (const auto& p : extract_paths(g, fixed_len, opts)) {
    for (const auto& step : p) ++seen[step.vertex];
  }
  for (int s : seen) EXPECT_LE(s, 1);
}

TEST(Traverse, OverlapGEReadLengthThrows) {
  StringGraph g(2);
  g.try_add_edge(forward_vertex(0), forward_vertex(1), 100);
  EXPECT_THROW(extract_paths(g, fixed_len, {}), std::logic_error);
}

// -- transitive reduction ---------------------------------------------------

TEST(Transitive, RemovesImpliedEdge) {
  // Reads of length 100 laid out at positions 0, 30, 60:
  // (0,1,70), (1,2,70), (0,2,40); the last is transitive.
  std::vector<std::uint32_t> lens(3, 100);
  FullStringGraph g(3, lens);
  g.add_edge(forward_vertex(0), forward_vertex(1), 70);
  g.add_edge(forward_vertex(1), forward_vertex(2), 70);
  g.add_edge(forward_vertex(0), forward_vertex(2), 40);
  EXPECT_EQ(g.edge_count(), 6u);  // 3 + complements
  const std::uint64_t removed = g.reduce();
  EXPECT_EQ(removed, 2u);  // (0,2) and its complement
  EXPECT_EQ(g.out_edges(forward_vertex(0)).size(), 1u);
  EXPECT_EQ(g.out_edges(forward_vertex(0))[0].dst, forward_vertex(1));
}

TEST(Transitive, KeepsNonTransitiveEdges) {
  std::vector<std::uint32_t> lens(3, 100);
  FullStringGraph g(3, lens);
  // Mismatched overhangs: 0->2 is NOT implied by 0->1->2.
  g.add_edge(forward_vertex(0), forward_vertex(1), 70);
  g.add_edge(forward_vertex(1), forward_vertex(2), 70);
  g.add_edge(forward_vertex(0), forward_vertex(2), 35);
  EXPECT_EQ(g.reduce(), 0u);
}

TEST(Transitive, DuplicateEdgesKeepLongestOverlap) {
  std::vector<std::uint32_t> lens(2, 100);
  FullStringGraph g(2, lens);
  g.add_edge(forward_vertex(0), forward_vertex(1), 30);
  g.add_edge(forward_vertex(0), forward_vertex(1), 60);
  ASSERT_EQ(g.out_edges(forward_vertex(0)).size(), 1u);
  EXPECT_EQ(g.out_edges(forward_vertex(0))[0].overlap, 60u);
}

TEST(Transitive, EqualOverlapTwinPresentationIsOrderIndependent) {
  // The regression this pins down: add_edge used to store whichever twin
  // direction arrived first, so presenting the same overlap as (u, v) vs
  // (v', u') — or reordering equal-overlap candidates — could flip the
  // adjacency. Keeping the largest overlap per (src, dst) in both twin
  // directions makes every presentation order collapse to one graph.
  const std::vector<std::uint32_t> lens(4, 100);
  const VertexId u = forward_vertex(1);
  const VertexId v = forward_vertex(2);

  FullStringGraph a(4, lens);
  a.add_edge(u, v, 60);
  FullStringGraph b(4, lens);
  b.add_edge(complement_vertex(v), complement_vertex(u), 60);  // twin form
  EXPECT_EQ(a.all_edges(), b.all_edges());

  // Duplicate equal-overlap inserts in both directions change nothing.
  FullStringGraph c(4, lens);
  c.add_edge(complement_vertex(v), complement_vertex(u), 60);
  c.add_edge(u, v, 60);
  c.add_edge(u, v, 60);
  EXPECT_EQ(c.all_edges(), a.all_edges());
  EXPECT_EQ(c.edge_count(), 2u);
}

TEST(Transitive, AdjacencyIsSortedAndInsertionOrderIndependent) {
  const std::vector<std::uint32_t> lens(6, 100);
  std::vector<Edge> inserts;
  for (std::uint32_t j = 1; j < 6; ++j) {
    inserts.push_back(Edge{forward_vertex(0), forward_vertex(j),
                           static_cast<std::uint16_t>(30 + 10 * (j % 3))});
  }
  std::mt19937_64 rng(17);
  std::vector<Edge> reference;
  for (int round = 0; round < 6; ++round) {
    std::shuffle(inserts.begin(), inserts.end(), rng);
    FullStringGraph g(6, lens);
    for (const Edge& e : inserts) g.add_edge(e.src, e.dst, e.overlap);
    const auto& adj = g.out_edges(forward_vertex(0));
    EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end(), adjacency_less));
    if (round == 0) {
      reference = g.all_edges();
    } else {
      EXPECT_EQ(g.all_edges(), reference) << "round " << round;
    }
  }
}

TEST(Transitive, UnitigGraphKeepsOnlyUnambiguousChainLinks) {
  // 0 -> 1 -> 2 plus a branch 0 -> 3: vertex 0 has out-degree 2, so only
  // (1, 2) survives the out-degree-1 x in-degree-1 test.
  const std::vector<std::uint32_t> lens(4, 100);
  FullStringGraph g(4, lens);
  g.add_edge(forward_vertex(0), forward_vertex(1), 70);
  g.add_edge(forward_vertex(1), forward_vertex(2), 70);
  g.add_edge(forward_vertex(0), forward_vertex(3), 60);
  const StringGraph unitigs = g.to_unitig_graph();
  const auto e = unitigs.out_edge(forward_vertex(1));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->dst, forward_vertex(2));
  EXPECT_FALSE(unitigs.out_edge(forward_vertex(0)).has_value());
}

}  // namespace
}  // namespace lasagna::graph
