// Cross-node conformance suite: the distributed pipeline must be an exact
// re-implementation of the single-node assembler, not an approximation.
// For every point of the (node count x reduce strategy x streamed) matrix
// the contig FASTA must be byte-identical to a single-node *synchronous*
// baseline — streaming and distribution may only move the modeled clocks.
// The suite also pins the headline modeling claim: at 4 nodes the streamed
// overlap model beats the synchronous one by at least 10%.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/pipeline.hpp"
#include "dist/cluster.hpp"
#include "io/tempdir.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"
#include "tie_corpus.hpp"

namespace lasagna::dist {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct Dataset {
  std::filesystem::path fastq;
  std::string baseline_fa;  ///< single-node synchronous contigs
  std::uint64_t candidate_edges = 0;
  std::uint64_t accepted_edges = 0;
};

/// Both datasets share the temp dir and are built once: the matrix below
/// re-uses the baselines across ~30 distributed runs.
class DistConformance : public ::testing::Test {
 protected:
  static constexpr unsigned kMinOverlap = 55;

  static void SetUpTestSuite() {
    dir_ = new io::ScopedTempDir("lasagna-conformance");
    datasets_ = new std::vector<Dataset>;
    const struct {
      std::uint64_t genome_len;
      unsigned genome_seed;
      double coverage;
      unsigned read_len;
      unsigned sim_seed;
    } specs[] = {
        {4000, 71, 12.0, 85, 72},
        {6000, 73, 10.0, 95, 74},
    };
    unsigned index = 0;
    for (const auto& s : specs) {
      Dataset d;
      d.fastq = dir_->file("reads" + std::to_string(index) + ".fq");
      const std::string genome =
          seq::random_genome(s.genome_len, s.genome_seed);
      seq::SequencingSpec spec;
      spec.read_length = s.read_len;
      spec.coverage = s.coverage;
      spec.seed = s.sim_seed;
      seq::simulate_to_fastq(genome, spec, d.fastq);
      add_dataset(std::move(d), index);
      ++index;
    }

    // Adversarial tie corpus (repeat-dense genome, palindromic overlaps):
    // nearly every candidate sits in an equal-fingerprint group, so any
    // layout- or strategy-sensitive tie break breaks byte-identity here
    // even when it survives the random genomes above.
    Dataset ties;
    ties.fastq = dir_->file("reads_ties.fq");
    lasagna::testing::write_tie_fastq(ties.fastq, /*copies=*/10,
                                      /*read_length=*/80, /*coverage=*/8.0,
                                      /*seed=*/7331);
    add_dataset(std::move(ties), index);
  }

  static void add_dataset(Dataset d, unsigned index) {
    // Single-node, fully synchronous reference (no streamed overlap
    // anywhere): the strictest baseline the matrix can be held to.
    core::AssemblyConfig single;
    single.min_overlap = kMinOverlap;
    single.machine.host_memory_bytes = 1 << 19;
    single.machine.device_memory_bytes = 1 << 16;
    single.streamed_map = false;
    single.streamed_sort = false;
    single.streamed_reduce = false;
    core::Assembler assembler(single);
    const std::filesystem::path out =
        dir_->file("baseline" + std::to_string(index) + ".fa");
    const auto result = assembler.run(d.fastq, out);
    d.baseline_fa = slurp(out);
    d.candidate_edges = result.candidate_edges;
    d.accepted_edges = result.accepted_edges;
    datasets_->push_back(std::move(d));
  }

  static void TearDownTestSuite() {
    delete datasets_;
    datasets_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static ClusterConfig cluster(unsigned nodes, ReduceStrategy strategy,
                               bool streamed) {
    ClusterConfig config = ClusterConfig::supermic(nodes, 4096.0);
    config.min_overlap = kMinOverlap;
    config.machine.host_memory_bytes = 1 << 19;
    config.machine.device_memory_bytes = 1 << 16;
    config.reduce_strategy = strategy;
    config.streamed = streamed;
    return config;
  }

  static const char* strategy_name(ReduceStrategy strategy) {
    switch (strategy) {
      case ReduceStrategy::kLengthToken: return "token";
      case ReduceStrategy::kSpeculative: return "spec";
    }
    return "?";
  }

  static void check_matrix_point(unsigned nodes, ReduceStrategy strategy,
                                 bool streamed) {
    for (std::size_t i = 0; i < datasets_->size(); ++i) {
      const Dataset& d = (*datasets_)[i];
      const std::string tag = "d" + std::to_string(i) + "_n" +
                              std::to_string(nodes) + "_" +
                              strategy_name(strategy) +
                              (streamed ? "_streamed" : "_sync");
      const std::filesystem::path out = dir_->file(tag + ".fa");
      const DistributedResult result =
          run_distributed(d.fastq, out, cluster(nodes, strategy, streamed));
      EXPECT_EQ(result.candidate_edges, d.candidate_edges) << tag;
      EXPECT_EQ(result.accepted_edges, d.accepted_edges) << tag;
      EXPECT_EQ(slurp(out), d.baseline_fa) << tag;
      if (strategy == ReduceStrategy::kSpeculative) {
        // Fixpoint in bounded rounds: each pipelined superstep runs at
        // most one conflict-free round beyond its conflicts.
        EXPECT_GE(result.reduce_rounds, 1u) << tag;
        EXPECT_GE(result.reduce_supersteps, 1u) << tag;
        EXPECT_LE(result.reduce_rounds,
                  result.reduce_conflicts + result.reduce_supersteps)
            << tag;
      } else {
        EXPECT_EQ(result.reduce_rounds, 0u) << tag;
        EXPECT_EQ(result.reduce_conflicts, 0u) << tag;
      }
    }
  }

  static io::ScopedTempDir* dir_;
  static std::vector<Dataset>* datasets_;
};

io::ScopedTempDir* DistConformance::dir_ = nullptr;
std::vector<Dataset>* DistConformance::datasets_ = nullptr;

TEST_F(DistConformance, TokenStreamed) {
  for (const unsigned nodes : {1u, 2u, 4u, 8u}) {
    check_matrix_point(nodes, ReduceStrategy::kLengthToken, true);
  }
}

TEST_F(DistConformance, TokenSynchronous) {
  for (const unsigned nodes : {1u, 2u, 4u, 8u}) {
    check_matrix_point(nodes, ReduceStrategy::kLengthToken, false);
  }
}

TEST_F(DistConformance, SpeculativeStreamed) {
  for (const unsigned nodes : {1u, 2u, 4u, 8u}) {
    check_matrix_point(nodes, ReduceStrategy::kSpeculative, true);
  }
}

TEST_F(DistConformance, SpeculativeSynchronous) {
  for (const unsigned nodes : {2u, 8u}) {  // sampled: strategy x streamed
    check_matrix_point(nodes, ReduceStrategy::kSpeculative, false);
  }
}

TEST_F(DistConformance, StreamedBeatsSynchronousByTenPercentAtFourNodes) {
  // The overlap-model regression guard (mirrors the bench's exit-code
  // check): streamed lanes must hide at least 10% of the synchronous
  // cluster time at 4 nodes.
  const Dataset& d = datasets_->front();
  const auto sync = run_distributed(
      d.fastq, dir_->file("guard_sync.fa"),
      cluster(4, ReduceStrategy::kLengthToken, false));
  const auto streamed = run_distributed(
      d.fastq, dir_->file("guard_streamed.fa"),
      cluster(4, ReduceStrategy::kLengthToken, true));
  const double sync_total = sync.stats.total_modeled_seconds();
  const double streamed_total = streamed.stats.total_modeled_seconds();
  EXPECT_LE(streamed_total, 0.90 * sync_total)
      << "streamed=" << streamed_total << "s sync=" << sync_total << "s";
  // Same bytes moved either way; only the clocks differ.
  EXPECT_EQ(streamed.shuffle_hash, sync.shuffle_hash);
  EXPECT_EQ(streamed.shuffle_bytes, sync.shuffle_bytes);
}

TEST_F(DistConformance, StreamedReduceNeverRegresses) {
  // PR 5's streamed reduce was *slower* than the synchronous one at 8
  // nodes (per-partition max-of-lanes serialized behind the token, losing
  // the cross-partition prefetch). The per-owner lane clocks must keep
  // streamed at or below sync at every node count.
  const Dataset& d = datasets_->front();
  for (const unsigned nodes : {1u, 2u, 4u, 8u}) {
    const auto sync = run_distributed(
        d.fastq, dir_->file("rg_sync" + std::to_string(nodes) + ".fa"),
        cluster(nodes, ReduceStrategy::kLengthToken, false));
    const auto streamed = run_distributed(
        d.fastq, dir_->file("rg_str" + std::to_string(nodes) + ".fa"),
        cluster(nodes, ReduceStrategy::kLengthToken, true));
    EXPECT_LE(streamed.stats.phase("reduce").modeled_seconds,
              sync.stats.phase("reduce").modeled_seconds)
        << nodes << " nodes";
  }
}

// 16/32-node sweep of fused and staged shuffles — the `dist-scaling`
// ctest shard. Both must reproduce the single-node contigs byte for byte,
// agree on the order-independent shuffle fingerprint and logical byte
// count, and compress the wire; fusing must also shrink the owner-side
// workspace high-water mark (no staged copy of the shuffle volume).
class DistScaling : public DistConformance {};

TEST_F(DistScaling, FusedAndStagedAgreeAt16And32Nodes) {
  const Dataset& d = datasets_->front();
  for (const unsigned nodes : {16u, 32u}) {
    std::uint64_t hash = 0;
    std::uint64_t bytes = 0;
    std::uint64_t fused_peak = 0;
    std::uint64_t staged_peak = 0;
    for (const bool fuse : {true, false}) {
      ClusterConfig config = cluster(nodes, ReduceStrategy::kLengthToken, true);
      config.fuse_shuffle = fuse;
      const std::string tag =
          "sc_n" + std::to_string(nodes) + (fuse ? "_fused" : "_staged");
      const DistributedResult r =
          run_distributed(d.fastq, dir_->file(tag + ".fa"), config);
      EXPECT_EQ(r.candidate_edges, d.candidate_edges) << tag;
      EXPECT_EQ(r.accepted_edges, d.accepted_edges) << tag;
      EXPECT_EQ(slurp(dir_->file(tag + ".fa")), d.baseline_fa) << tag;
      if (hash == 0) {
        hash = r.shuffle_hash;
        bytes = r.shuffle_bytes;
      }
      EXPECT_EQ(r.shuffle_hash, hash) << tag;
      EXPECT_EQ(r.shuffle_bytes, bytes) << tag;
      EXPECT_GT(r.compression_ratio, 1.0) << tag;
      EXPECT_LT(r.wire_bytes, r.shuffle_bytes) << tag;
      (fuse ? fused_peak : staged_peak) = r.peak_workspace_bytes;
    }
    // Fusion never materializes the staged shuffle copy, so the summed
    // per-node disk high-water must drop.
    EXPECT_LT(fused_peak, staged_peak) << nodes << " nodes";
    EXPECT_GT(fused_peak, 0u);
  }
}

// Speculative reduce at scale — the `reduce-scaling` ctest shard. The
// token walk serializes the whole reduce behind one bit-vector hand-off;
// the partitioned speculative resolver must (a) stay byte-identical to the
// single-node baseline at 16 and 32 nodes, (b) converge in bounded
// reconciliation supersteps, and (c) actually break the token wall: the
// modeled reduce time must shrink against token at the same node count.
class ReduceScaling : public DistConformance {};

TEST_F(ReduceScaling, SpeculativeScalesPastTokenAt16And32Nodes) {
  for (const unsigned nodes : {16u, 32u}) {
    for (std::size_t i = 0; i < datasets_->size(); ++i) {
      const Dataset& d = (*datasets_)[i];
      const std::string tag =
          "rs_d" + std::to_string(i) + "_n" + std::to_string(nodes);
      const auto token = run_distributed(
          d.fastq, dir_->file(tag + "_token.fa"),
          cluster(nodes, ReduceStrategy::kLengthToken, true));
      const auto spec = run_distributed(
          d.fastq, dir_->file(tag + "_spec.fa"),
          cluster(nodes, ReduceStrategy::kSpeculative, true));
      // Byte-identical result...
      EXPECT_EQ(slurp(dir_->file(tag + "_spec.fa")), d.baseline_fa) << tag;
      EXPECT_EQ(spec.accepted_edges, token.accepted_edges) << tag;
      // ...in bounded rounds (one conflict-free round per superstep at
      // worst)...
      EXPECT_GE(spec.reduce_rounds, 1u) << tag;
      EXPECT_GE(spec.reduce_supersteps, 1u) << tag;
      EXPECT_LE(spec.reduce_rounds,
                spec.reduce_conflicts + spec.reduce_supersteps)
          << tag;
      // ...and faster than the token-serialized walk.
      EXPECT_LT(spec.stats.phase("reduce").modeled_seconds,
                token.stats.phase("reduce").modeled_seconds)
          << tag;
    }
  }
}

// Reduced graph mode (--graph=reduced) — the `graph-quality` ctest shard.
// The distributed blocked transitive reduction + stitch superstep must
// reproduce the single-node reduced pipeline byte for byte at every node
// count, and agree on the full-graph/reduction counters (the candidate
// multiset, the pre-reduction directed edge count, and the number of
// transitive edges removed are all layout-invariant).
class ReducedConformance : public DistConformance {
 protected:
  struct ReducedBaseline {
    std::string fa;
    std::uint64_t candidate_edges = 0;
    std::uint64_t accepted_edges = 0;
    std::uint64_t full_edges = 0;
    std::uint64_t transitive_removed = 0;
  };

  static void SetUpTestSuite() {
    DistConformance::SetUpTestSuite();
    reduced_ = new std::vector<ReducedBaseline>;
    for (std::size_t i = 0; i < datasets_->size(); ++i) {
      core::AssemblyConfig single;
      single.min_overlap = kMinOverlap;
      single.machine.host_memory_bytes = 1 << 19;
      single.machine.device_memory_bytes = 1 << 16;
      single.streamed_map = false;
      single.streamed_sort = false;
      single.streamed_reduce = false;
      single.graph = core::GraphMode::kReduced;
      core::Assembler assembler(single);
      const std::filesystem::path out =
          dir_->file("reduced_baseline" + std::to_string(i) + ".fa");
      const auto result = assembler.run((*datasets_)[i].fastq, out);
      ReducedBaseline b;
      b.fa = slurp(out);
      b.candidate_edges = result.candidate_edges;
      b.accepted_edges = result.accepted_edges;
      b.full_edges = result.full_edges;
      b.transitive_removed = result.transitive_removed;
      reduced_->push_back(std::move(b));
    }
  }

  static void TearDownTestSuite() {
    delete reduced_;
    reduced_ = nullptr;
    DistConformance::TearDownTestSuite();
  }

  static void check_reduced_point(unsigned nodes, bool streamed) {
    for (std::size_t i = 0; i < datasets_->size(); ++i) {
      const Dataset& d = (*datasets_)[i];
      const ReducedBaseline& b = (*reduced_)[i];
      const std::string tag = "red_d" + std::to_string(i) + "_n" +
                              std::to_string(nodes) +
                              (streamed ? "_streamed" : "_sync");
      ClusterConfig config =
          cluster(nodes, ReduceStrategy::kLengthToken, streamed);
      config.graph = core::GraphMode::kReduced;
      const std::filesystem::path out = dir_->file(tag + ".fa");
      const DistributedResult result = run_distributed(d.fastq, out, config);
      EXPECT_EQ(result.candidate_edges, b.candidate_edges) << tag;
      EXPECT_EQ(result.accepted_edges, b.accepted_edges) << tag;
      EXPECT_EQ(result.full_edges, b.full_edges) << tag;
      EXPECT_EQ(result.transitive_removed, b.transitive_removed) << tag;
      EXPECT_EQ(slurp(out), b.fa) << tag;
    }
  }

  static std::vector<ReducedBaseline>* reduced_;
};

std::vector<ReducedConformance::ReducedBaseline>* ReducedConformance::reduced_ =
    nullptr;

TEST_F(ReducedConformance, StreamedMatchesSingleNodeAt1_4_16Nodes) {
  for (const unsigned nodes : {1u, 4u, 16u}) {
    check_reduced_point(nodes, true);
  }
}

TEST_F(ReducedConformance, SynchronousMatchesSingleNodeAt1_4_16Nodes) {
  for (const unsigned nodes : {1u, 4u, 16u}) {
    check_reduced_point(nodes, false);
  }
}

TEST_F(ReducedConformance, ReductionActuallyRemovesEdgesAndDiffersFromGreedy) {
  // Guard against a silently disabled reduction: the random-coverage
  // genomes produce transitive chains, so the reducer must remove edges,
  // and the full graph must hold at least as many edges as greedy accepts.
  const ReducedBaseline& b = reduced_->front();
  EXPECT_GT(b.full_edges, 0u);
  EXPECT_GT(b.transitive_removed, 0u);
  EXPECT_GE(b.full_edges / 2, datasets_->front().accepted_edges);
}

}  // namespace
}  // namespace lasagna::dist
