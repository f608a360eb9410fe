// Property suite for the blocked parallel transitive reduction: for every
// input — uniform random graphs, positioned read chains (dense genuine
// transitivity) and adversarial equal-overlap tie cliques — the thread-pool
// reduction must be byte-identical to the sequential `reduce()` at every
// thread count and block size, and the surviving edge set must be
// irreducible (no two-hop implied edge remains). The staged build, whose
// batch merges run on pool threads, must equal a per-edge model across
// many merge boundaries. Runs under TSan in CI: the per-vertex flag matrix
// plus the wait_idle barriers, and the per-vertex merge ranges, are the
// whole synchronization story, and this suite is what pins it down.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "graph/transitive.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::graph {
namespace {

struct GraphSpec {
  std::uint32_t reads = 0;
  std::vector<std::uint32_t> lengths;       // per read
  std::vector<Edge> inserts;                // add_edge(u, v, overlap) calls
};

/// Uniform random edges: arbitrary topology, not necessarily consistent
/// with any layout — the reduction must still be deterministic on it.
GraphSpec random_spec(std::uint32_t reads, int edges, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  GraphSpec spec;
  spec.reads = reads;
  std::uniform_int_distribution<std::uint32_t> len(80, 120);
  for (std::uint32_t r = 0; r < reads; ++r) spec.lengths.push_back(len(rng));
  std::uniform_int_distribution<std::uint32_t> vert(0, reads * 2 - 1);
  std::uniform_int_distribution<std::uint32_t> ovl(20, 75);
  for (int i = 0; i < edges; ++i) {
    spec.inserts.push_back(Edge{vert(rng), vert(rng),
                                static_cast<std::uint16_t>(ovl(rng))});
  }
  return spec;
}

/// Reads placed along a line with random gaps: every pair of overlapping
/// placements gets its true overlap, so multi-hop spans produce genuinely
/// transitive edges with exactly matching overhangs.
GraphSpec positioned_spec(std::uint32_t reads, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  GraphSpec spec;
  spec.reads = reads;
  std::uniform_int_distribution<std::uint32_t> gap(10, 45);
  std::vector<std::uint32_t> pos;
  std::uint32_t at = 0;
  for (std::uint32_t r = 0; r < reads; ++r) {
    spec.lengths.push_back(100);
    pos.push_back(at);
    at += gap(rng);
  }
  for (std::uint32_t i = 0; i < reads; ++i) {
    for (std::uint32_t j = i + 1; j < reads; ++j) {
      const std::uint32_t shift = pos[j] - pos[i];
      if (shift == 0 || shift >= 100) continue;
      spec.inserts.push_back(
          Edge{forward_vertex(i), forward_vertex(j),
               static_cast<std::uint16_t>(100 - shift)});
    }
  }
  std::shuffle(spec.inserts.begin(), spec.inserts.end(), rng);
  return spec;
}

/// Adversarial tie cliques (the tie_corpus shape at graph level): clusters
/// of reads whose pairwise overlaps are all equal, presented in shuffled
/// order and random twin direction — every adjacency decision is a tie.
GraphSpec tie_clique_spec(std::uint32_t clusters, std::uint32_t per,
                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  GraphSpec spec;
  spec.reads = clusters * per;
  spec.lengths.assign(spec.reads, 100);
  for (std::uint32_t c = 0; c < clusters; ++c) {
    for (std::uint32_t i = 0; i < per; ++i) {
      for (std::uint32_t j = i + 1; j < per; ++j) {
        const VertexId u = forward_vertex(c * per + i);
        const VertexId v = forward_vertex(c * per + j);
        if (rng() % 2 == 0) {
          spec.inserts.push_back(Edge{u, v, 60});
        } else {  // twin presentation of the same overlap
          spec.inserts.push_back(
              Edge{complement_vertex(v), complement_vertex(u), 60});
        }
      }
    }
  }
  std::shuffle(spec.inserts.begin(), spec.inserts.end(), rng);
  return spec;
}

/// Appends to `spec` one re-offer of a random earlier edge per insert —
/// at the same or another overlap, in either twin presentation — plus self
/// and complement loops, then shuffles.
GraphSpec with_reinserts(GraphSpec spec, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> ovl(20, 75);
  const std::size_t original = spec.inserts.size();
  for (std::size_t i = 0; i < original; ++i) {
    const Edge e = spec.inserts[rng() % original];
    const auto overlap =
        rng() % 3 == 0 ? e.overlap : static_cast<std::uint16_t>(ovl(rng));
    if (rng() % 2 == 0) {
      spec.inserts.push_back(Edge{e.src, e.dst, overlap});
    } else {
      spec.inserts.push_back(
          Edge{complement_vertex(e.dst), complement_vertex(e.src), overlap});
    }
  }
  for (VertexId v = 0; v < spec.reads * 2; v += 5) {
    spec.inserts.push_back(Edge{v, v, 60});
    spec.inserts.push_back(Edge{v, complement_vertex(v), 60});
  }
  std::shuffle(spec.inserts.begin(), spec.inserts.end(), rng);
  return spec;
}

/// What one-edge-at-a-time insertion stores: the largest overlap per
/// (src, dst) over both twin directions, loops dropped, flattened by
/// ascending src in `adjacency_less` order.
std::vector<Edge> per_edge_model(const GraphSpec& spec) {
  std::map<std::pair<VertexId, VertexId>, std::uint16_t> best;
  const auto offer = [&best](VertexId src, VertexId dst,
                             std::uint16_t overlap) {
    const auto [it, fresh] = best.try_emplace({src, dst}, overlap);
    if (!fresh) it->second = std::max(it->second, overlap);
  };
  for (const Edge& e : spec.inserts) {
    if (e.src == e.dst || e.dst == complement_vertex(e.src)) continue;
    offer(e.src, e.dst, e.overlap);
    offer(complement_vertex(e.dst), complement_vertex(e.src), e.overlap);
  }
  std::vector<Edge> edges;
  for (const auto& [key, overlap] : best) {
    edges.push_back(Edge{key.first, key.second, overlap});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : adjacency_less(a, b);
  });
  return edges;
}

FullStringGraph build(const GraphSpec& spec) {
  FullStringGraph g(spec.reads, spec.lengths);
  for (const Edge& e : spec.inserts) g.add_edge(e.src, e.dst, e.overlap);
  return g;
}

/// The property: sequential and blocked-parallel reduction agree edge for
/// edge (same flattened adjacency, same removal count) for every thread
/// count x block size.
void expect_parallel_matches_sequential(const GraphSpec& spec,
                                        const std::string& tag) {
  FullStringGraph sequential = build(spec);
  const std::uint64_t removed_seq = sequential.reduce();
  const std::vector<Edge> reduced_seq = sequential.all_edges();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    for (const std::uint32_t block : {0u, 1u, 7u, 64u}) {
      FullStringGraph parallel = build(spec);
      const std::uint64_t removed_par =
          parallel.reduce_parallel(pool, block);
      EXPECT_EQ(removed_par, removed_seq)
          << tag << " threads=" << threads << " block=" << block;
      EXPECT_EQ(parallel.all_edges(), reduced_seq)
          << tag << " threads=" << threads << " block=" << block;
    }
  }
}

/// Irreducibility: no surviving edge (v, x) is implied by a surviving
/// two-hop path (v, w), (w, x) with exactly matching overhangs.
void expect_irreducible(const FullStringGraph& g, const std::string& tag) {
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    for (const Edge& vw : g.out_edges(v)) {
      const std::uint32_t overhang_vw = g.vertex_length(v) - vw.overlap;
      for (const Edge& wx : g.out_edges(vw.dst)) {
        const std::uint32_t overhang_wx =
            g.vertex_length(vw.dst) - wx.overlap;
        for (const Edge& vx : g.out_edges(v)) {
          if (vx.dst != wx.dst) continue;
          EXPECT_NE(g.vertex_length(v) - vx.overlap,
                    overhang_vw + overhang_wx)
              << tag << ": surviving implied edge " << v << "->" << vx.dst
              << " via " << vw.dst;
        }
      }
    }
  }
}

TEST(ParallelReduction, MatchesSequentialOnRandomGraphs) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    expect_parallel_matches_sequential(
        random_spec(/*reads=*/96, /*edges=*/1200, seed),
        "random seed=" + std::to_string(seed));
  }
}

TEST(ParallelReduction, MatchesSequentialOnPositionedChains) {
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    expect_parallel_matches_sequential(
        positioned_spec(/*reads=*/120, seed),
        "positioned seed=" + std::to_string(seed));
  }
}

TEST(ParallelReduction, MatchesSequentialOnTieCliques) {
  for (const std::uint64_t seed : {31ull, 32ull}) {
    expect_parallel_matches_sequential(
        tie_clique_spec(/*clusters=*/8, /*per=*/7, seed),
        "ties seed=" + std::to_string(seed));
  }
}

TEST(ParallelReduction, ReducedGraphIsIrreducible) {
  for (const std::uint64_t seed : {41ull, 42ull}) {
    {
      FullStringGraph g = build(positioned_spec(100, seed));
      ASSERT_GT(g.reduce(), 0u);
      expect_irreducible(g, "positioned seed=" + std::to_string(seed));
    }
    {
      FullStringGraph g = build(random_spec(64, 800, seed));
      g.reduce();
      expect_irreducible(g, "random seed=" + std::to_string(seed));
    }
  }
}

TEST(ParallelReduction, InsertionOrderNeverChangesTheResult) {
  // Canonical adjacency + two-pass marking => the reduced graph is a pure
  // function of the edge *set*. Shuffle the insertion order (and flip twin
  // presentation) and require identical reduced output.
  GraphSpec spec = positioned_spec(80, 51);
  FullStringGraph reference = build(spec);
  reference.reduce();
  const std::vector<Edge> expected = reference.all_edges();

  std::mt19937_64 rng(52);
  util::ThreadPool pool(4);
  for (int round = 0; round < 4; ++round) {
    std::shuffle(spec.inserts.begin(), spec.inserts.end(), rng);
    for (Edge& e : spec.inserts) {
      if (rng() % 2 == 0) {
        e = Edge{complement_vertex(e.dst), complement_vertex(e.src),
                 e.overlap};
      }
    }
    FullStringGraph shuffled = build(spec);
    shuffled.reduce_parallel(pool);
    EXPECT_EQ(shuffled.all_edges(), expected) << "round " << round;
  }
}

TEST(ParallelReduction, UnitigGraphAgreesAcrossThreadCounts) {
  // End of the pipeline: the unitig edges extracted from a parallel
  // reduction must equal those from the sequential one.
  const GraphSpec spec = positioned_spec(150, 61);
  FullStringGraph sequential = build(spec);
  sequential.reduce();
  const std::vector<Edge> expected =
      sequential.to_unitig_graph().edges();
  ASSERT_FALSE(expected.empty());

  for (const std::size_t threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    FullStringGraph parallel = build(spec);
    parallel.reduce_parallel(pool);
    EXPECT_EQ(parallel.to_unitig_graph().edges(), expected)
        << "threads=" << threads;
  }
}

TEST(ParallelReduction, StagedBuildMatchesAPerEdgeModel) {
  // Over 30 inserts per vertex, so the staged edges are merged into the
  // stored lists many times mid-build, re-offers and their twins landing
  // in other batches than the edges they repeat.
  for (const std::uint64_t seed : {71ull, 72ull, 73ull}) {
    GraphSpec spec = with_reinserts(
        random_spec(/*reads=*/24, /*edges=*/1500, seed), seed + 100);
    const std::string tag = "seed=" + std::to_string(seed);
    ASSERT_GE(spec.inserts.size(), 30u * spec.reads * 2) << tag;
    const std::vector<Edge> expected = per_edge_model(spec);

    // A read midway merges early; adding on must reach the same graph.
    FullStringGraph g(spec.reads, spec.lengths);
    const std::size_t half = spec.inserts.size() / 2;
    for (std::size_t i = 0; i < spec.inserts.size(); ++i) {
      if (i == half) {
        EXPECT_GT(g.edge_count(), 0u) << tag;
      }
      const Edge& e = spec.inserts[i];
      g.add_edge(e.src, e.dst, e.overlap);
    }
    EXPECT_EQ(g.all_edges(), expected) << tag;
    EXPECT_EQ(g.edge_count(), expected.size()) << tag;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto& adj = g.out_edges(v);
      EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end(), adjacency_less))
          << tag << " vertex " << v;
    }

    std::shuffle(spec.inserts.begin(), spec.inserts.end(),
                 std::mt19937_64(seed));
    EXPECT_EQ(build(spec).all_edges(), expected) << tag << " shuffled";
  }
}

}  // namespace
}  // namespace lasagna::graph
