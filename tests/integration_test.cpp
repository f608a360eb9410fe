// Cross-module integration tests that do not fit a single phase: the
// baseline graph feeding the compress phase, the active-message layer under
// concurrency, and assembled-graph GFA round trips.
#include <gtest/gtest.h>

#include <fstream>
#include <thread>

#include "baseline/sga.hpp"
#include "core/compress_phase.hpp"
#include "core/pipeline.hpp"
#include "dist/active_message.hpp"
#include "graph/gfa.hpp"
#include "io/fastq.hpp"
#include "io/tempdir.hpp"
#include "seq/genome.hpp"
#include "seq/preprocess.hpp"
#include "seq/simulator.hpp"
#include "test_workspace.hpp"

namespace lasagna {
namespace {

TEST(Integration, BaselineGraphSpellsSameContigsAsLasagna) {
  // Conflict-free tiling: both pipelines build the same graph, and feeding
  // the baseline's graph through LaSAGNA's compress phase must produce
  // identical contigs.
  io::ScopedTempDir dir("lasagna-int");
  const std::string genome = seq::random_genome(1200, 81);
  std::vector<io::SequenceRecord> records;
  for (std::size_t pos = 0; pos + 100 <= genome.size(); pos += 20) {
    records.push_back({"r" + std::to_string(pos), genome.substr(pos, 100),
                       ""});
  }
  io::write_fastq_file(dir.file("reads.fq"), records);

  baseline::SgaConfig sga_config;
  sga_config.min_overlap = 60;
  const auto sga = baseline::run_sga_pipeline(dir.file("reads.fq"),
                                              sga_config);

  testing::TestWorkspace tw;
  const auto compressed = core::run_compress_phase(
      tw.ws(), *sga.graph, dir.file("reads.fq"), tw.dir().file("sga.fa"),
      {});
  ASSERT_EQ(compressed.stats.count, 1u);
  const auto contigs = io::read_sequence_file(tw.dir().file("sga.fa"));
  EXPECT_EQ(contigs[0].bases, genome.substr(0, contigs[0].bases.size()));

  core::AssemblyConfig config;
  config.min_overlap = 60;
  core::Assembler assembler(config);
  const auto lasagna =
      assembler.run(dir.file("reads.fq"), dir.file("lasagna.fa"));
  const auto lasagna_contigs =
      io::read_sequence_file(dir.file("lasagna.fa"));
  ASSERT_EQ(lasagna_contigs.size(), contigs.size());
  EXPECT_EQ(lasagna_contigs[0].bases, contigs[0].bases);
  EXPECT_EQ(lasagna.accepted_edges, sga.accepted_edges);
}

TEST(Integration, NetworkHandlesConcurrentRequests) {
  dist::Network net(4, dist::ClusterTopology::flat(1e9, 1e-6));
  std::atomic<std::uint64_t> handled{0};
  for (unsigned n = 0; n < 4; ++n) {
    net.register_handler(n, 0,
                         [&handled](unsigned, std::span<const std::byte>) {
                           handled.fetch_add(1);
                           return dist::Payload(8);
                         });
  }
  std::vector<std::thread> threads;
  for (unsigned src = 0; src < 4; ++src) {
    threads.emplace_back([&net, src] {
      for (int i = 0; i < 200; ++i) {
        // Offset 1..3 keeps every request remote (src != dst).
        (void)net.request(src, (src + 1 + (i % 3)) % 4, 0,
                          dist::Payload(16));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(handled.load(), 800u);
  std::uint64_t total_sent = 0;
  for (unsigned n = 0; n < 4; ++n) total_sent += net.bytes_sent(n);
  // Every request is remote: 800 x (16 request + 8 reply).
  EXPECT_EQ(total_sent, 800u * 24);
}

TEST(Integration, GfaExportOfRealAssemblyParses) {
  io::ScopedTempDir dir("lasagna-int");
  const std::string genome = seq::random_genome(5000, 83);
  seq::SequencingSpec spec;
  spec.read_length = 90;
  spec.coverage = 15.0;
  spec.seed = 84;
  seq::simulate_to_fastq(genome, spec, dir.file("reads.fq"));

  core::AssemblyConfig config;
  config.min_overlap = 55;
  config.gfa_output = dir.file("graph.gfa");
  core::Assembler assembler(config);
  const auto result = assembler.run(dir.file("reads.fq"),
                                    dir.file("contigs.fa"));

  ASSERT_TRUE(std::filesystem::exists(dir.file("graph.gfa")));
  std::ifstream in(dir.file("graph.gfa"));
  std::string line;
  std::size_t links = 0;
  std::size_t segments = 0;
  bool header = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    switch (line[0]) {
      case 'H':
        header = true;
        break;
      case 'S':
        ++segments;
        break;
      case 'L':
        ++links;
        break;
      default:
        FAIL() << "unexpected GFA record: " << line;
    }
  }
  EXPECT_TRUE(header);
  EXPECT_EQ(links, result.graph_edges / 2);
  EXPECT_GT(segments, 0u);
}

TEST(Integration, PreprocessThenAssembleOnDirtyData) {
  io::ScopedTempDir dir("lasagna-int");
  const std::string genome = seq::random_genome(8000, 85);
  seq::SequencingSpec spec;
  spec.read_length = 100;
  spec.coverage = 25.0;
  spec.seed = 86;
  seq::simulate_to_fastq(genome, spec, dir.file("raw.fq"));
  // Degrade tails.
  auto records = io::read_sequence_file(dir.file("raw.fq"));
  for (auto& r : records) {
    for (std::size_t i = r.quality.size() - 8; i < r.quality.size(); ++i) {
      r.quality[i] = '#';
    }
  }
  io::write_fastq_file(dir.file("raw.fq"), records);

  seq::PreprocessConfig pre;
  pre.min_length = 60;
  const auto stats = seq::preprocess_reads_file(
      dir.file("raw.fq"), dir.file("clean.fq"), pre);
  EXPECT_EQ(stats.reads_trimmed, stats.reads_in);

  core::AssemblyConfig config;
  config.min_overlap = 55;  // reads are now 92 bases
  core::Assembler assembler(config);
  const auto result =
      assembler.run(dir.file("clean.fq"), dir.file("contigs.fa"));
  EXPECT_GT(result.contigs.max_length, 500u);
  EXPECT_EQ(result.false_positives, 0u);
}

}  // namespace
}  // namespace lasagna
