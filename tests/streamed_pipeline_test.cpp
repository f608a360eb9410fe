// Determinism and modeled-time contracts of the streamed map and reduce
// pipelines (the end-to-end extension of the sort phase's streaming):
//  - streamed map partition files are byte-identical to the synchronous
//    path's, for any emission chunk count and under transient read faults;
//  - the streamed reduce builds the exact same edge set, including through
//    the oversized duplicate-run fallback;
//  - the fully streamed pipeline's modeled end-to-end time undercuts the
//    fully synchronous baseline by >= 15% on the paper's Fig-8-style
//    geometry (the CI regression guard for the overlap model).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "core/map_phase.hpp"
#include "core/pipeline.hpp"
#include "core/reduce_phase.hpp"
#include "core/sort_phase.hpp"
#include "io/fastq.hpp"
#include "io/fault_injector.hpp"
#include "io/record_stream.hpp"
#include "io/tempdir.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"
#include "test_workspace.hpp"

namespace lasagna::core {
namespace {

using lasagna::testing::TestWorkspace;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every partition file's bytes, keyed by role and partition key.
std::map<std::string, std::string> partition_contents(const MapResult& map) {
  std::map<std::string, std::string> out;
  for (unsigned l : map.suffixes->lengths()) {
    out["sfx:" + std::to_string(l)] = slurp(map.suffixes->path(l));
  }
  for (unsigned l : map.prefixes->lengths()) {
    out["pfx:" + std::to_string(l)] = slurp(map.prefixes->path(l));
  }
  return out;
}

std::filesystem::path simulated_fastq(const TestWorkspace& tw,
                                      std::uint64_t genome_len,
                                      double coverage, std::uint64_t seed) {
  const std::string genome = seq::random_genome(genome_len, seed);
  seq::SequencingSpec spec;
  spec.read_length = 100;
  spec.coverage = coverage;
  spec.seed = seed + 1;
  const auto path = tw.dir().file("reads.fq");
  seq::simulate_to_fastq(genome, spec, path);
  return path;
}

MapOptions base_map_options() {
  MapOptions options;
  options.min_overlap = 80;
  return options;
}

void expect_same_map(const MapResult& a, const MapResult& b,
                     const char* label) {
  EXPECT_EQ(a.read_count, b.read_count) << label;
  EXPECT_EQ(a.total_bases, b.total_bases) << label;
  EXPECT_EQ(a.tuples_emitted, b.tuples_emitted) << label;
  EXPECT_EQ(a.max_read_length, b.max_read_length) << label;
  EXPECT_EQ(a.read_lengths, b.read_lengths) << label;
  EXPECT_EQ(partition_contents(a), partition_contents(b)) << label;
}

TEST(StreamedMap, PartitionFilesByteIdenticalToSync) {
  TestWorkspace sync_ws;
  TestWorkspace streamed_ws;
  const auto sync_fq = simulated_fastq(sync_ws, 3000, 8.0, 11);
  const auto streamed_fq = simulated_fastq(streamed_ws, 3000, 8.0, 11);

  MapOptions options = base_map_options();
  options.streamed = false;
  const auto sync = run_map_phase(sync_ws.ws(), sync_fq, options);
  options.streamed = true;
  const auto streamed = run_map_phase(streamed_ws.ws(), streamed_fq, options);

  expect_same_map(sync, streamed, "streamed vs sync");
  EXPECT_GT(streamed.host_bytes, 0u);
}

TEST(StreamedMap, EmissionChunkingDoesNotChangeBytes) {
  // The parallel emitter splits strands into contiguous chunks and drains
  // them in chunk order, so the bytes must be identical for ANY chunking —
  // a single chunk (serial), an odd count, and the pool-sized auto count.
  // This is exactly the thread-count-independence argument: a pool of N
  // threads only changes the chunk boundaries, never the concatenation.
  std::map<std::string, std::string> reference;
  std::uint64_t reference_tuples = 0;
  for (unsigned chunks : {1u, 5u, 0u}) {
    TestWorkspace tw;
    const auto fq = simulated_fastq(tw, 3000, 8.0, 23);
    MapOptions options = base_map_options();
    options.streamed = true;
    options.emission_chunks = chunks;
    const auto map = run_map_phase(tw.ws(), fq, options);
    if (reference.empty()) {
      reference = partition_contents(map);
      reference_tuples = map.tuples_emitted;
    } else {
      EXPECT_EQ(partition_contents(map), reference) << chunks;
      EXPECT_EQ(map.tuples_emitted, reference_tuples) << chunks;
    }
  }
}

TEST(StreamedMap, ByteIdenticalUnderTransientReadFaults) {
  if (io::FaultInjector::active() != nullptr) {
    GTEST_SKIP() << "ambient injector installed via LASAGNA_FAULT_SPEC";
  }
  TestWorkspace sync_ws;
  TestWorkspace faulty_ws;
  const auto sync_fq = simulated_fastq(sync_ws, 3000, 8.0, 31);
  const auto faulty_fq = simulated_fastq(faulty_ws, 3000, 8.0, 31);

  MapOptions options = base_map_options();
  options.streamed = false;
  const auto sync = run_map_phase(sync_ws.ws(), sync_fq, options);

  // Transient read faults strike the background prefetch thread; the retry
  // layer absorbs them there, so the consumer sees the identical batch
  // sequence and the partition files stay byte-identical.
  auto injector =
      io::FaultInjector::parse("seed=5;retries=3;read:rate=0.05,transient=1");
  io::FaultInjector::ScopedInstall guard(injector.get());
  options.streamed = true;
  const auto streamed = run_map_phase(faulty_ws.ws(), faulty_fq, options);

  expect_same_map(sync, streamed, "faulty streamed vs sync");
  EXPECT_GT(injector->injected(), 0u);
  EXPECT_EQ(injector->fatal(), 0u);
}

/// Map + sort once, then reduce the same sorted partitions with and
/// without streaming and compare the full edge lists.
void expect_reduce_identical(TestWorkspace& tw,
                             const std::filesystem::path& fq,
                             const MapOptions& map_options,
                             BlockGeometry geometry) {
  auto map = run_map_phase(tw.ws(), fq, map_options);
  const std::uint32_t read_count = map.read_count;
  const auto sorted = run_sort_phase(tw.ws(), map, geometry);

  ReduceOptions options;
  options.streamed = false;
  const auto sync = run_reduce_phase(tw.ws(), sorted, read_count, options);
  options.streamed = true;
  const auto streamed =
      run_reduce_phase(tw.ws(), sorted, read_count, options);

  EXPECT_EQ(sync.candidate_edges, streamed.candidate_edges);
  EXPECT_EQ(sync.accepted_edges, streamed.accepted_edges);
  EXPECT_EQ(sync.graph->edge_count(), streamed.graph->edge_count());
  const auto sync_edges = sync.graph->edges();
  const auto streamed_edges = streamed.graph->edges();
  ASSERT_EQ(sync_edges.size(), streamed_edges.size());
  for (std::size_t i = 0; i < sync_edges.size(); ++i) {
    EXPECT_EQ(sync_edges[i].src, streamed_edges[i].src) << i;
    EXPECT_EQ(sync_edges[i].dst, streamed_edges[i].dst) << i;
    EXPECT_EQ(sync_edges[i].overlap, streamed_edges[i].overlap) << i;
  }
  EXPECT_GT(streamed.candidate_edges, 0u);
}

TEST(StreamedReduce, EdgeSetIdenticalToSync) {
  TestWorkspace tw;
  const auto fq = simulated_fastq(tw, 3000, 10.0, 43);
  MapOptions map_options;
  map_options.min_overlap = 80;
  expect_reduce_identical(tw, fq, map_options, BlockGeometry{2000, 256});
}

TEST(StreamedReduce, DuplicateRunCorpusMatchesSync) {
  // Pathological corpus: many copies of the same read collapse every
  // partition into one oversized duplicate-fingerprint run per strand,
  // forcing the append_run window-overflow fallback (and, before the
  // cursor-based FileWindow, a quadratic front-erase per record).
  TestWorkspace tw(16 << 10);  // 16 KiB device -> ~85-record reduce windows
  std::vector<io::SequenceRecord> records;
  // A 4-periodic read: its length-96 suffix equals its length-96 prefix,
  // so every copy's suffix fingerprint matches every copy's prefix
  // fingerprint in partition l=96 — one run of 300 identical fingerprints
  // (both strands; rc("ACGT"...) is itself) against an ~85-record window.
  std::string read;
  for (int i = 0; i < 25; ++i) read += "ACGT";
  for (int i = 0; i < 150; ++i) {
    records.push_back({"r" + std::to_string(i), read, ""});
  }
  const auto fq = tw.dir().file("dups.fq");
  io::write_fastq_file(fq, records);

  MapOptions map_options;
  map_options.min_overlap = 95;
  expect_reduce_identical(tw, fq, map_options, BlockGeometry{512, 64});
}

TEST(StreamedPipeline, ModeledTimeAtLeast15PercentBelowSyncBaseline) {
  // Fig-8-style geometry: budgets small enough that every phase moves real
  // multiples of its memory through disk and device. The fully streamed
  // pipeline must beat the fully synchronous one by >= 15% modeled time
  // while producing byte-identical contigs.
  io::ScopedTempDir dir("lasagna-streamed-e2e");
  const std::string genome = seq::random_genome(8000, 51);
  seq::SequencingSpec spec;
  spec.read_length = 100;
  spec.coverage = 15.0;
  spec.seed = 52;
  seq::simulate_to_fastq(genome, spec, dir.file("reads.fq"));

  auto run = [&](bool streamed, const char* name) {
    AssemblyConfig config;
    config.min_overlap = 63;
    config.machine.host_memory_bytes = 1 << 18;    // 256 KiB
    config.machine.device_memory_bytes = 1 << 15;  // 32 KiB
    config.streamed_sort = streamed;
    config.streamed_map = streamed;
    config.streamed_reduce = streamed;
    Assembler assembler(config);
    const auto result =
        assembler.run(dir.file("reads.fq"), dir.file(name));
    return result;
  };

  const auto sync = run(false, "sync.fa");
  const auto streamed = run(true, "streamed.fa");

  EXPECT_EQ(slurp(dir.file("streamed.fa")), slurp(dir.file("sync.fa")));
  EXPECT_EQ(streamed.graph_edges, sync.graph_edges);
  EXPECT_EQ(streamed.tuples_emitted, sync.tuples_emitted);

  const double sync_total = sync.stats.total_modeled_seconds();
  const double streamed_total = streamed.stats.total_modeled_seconds();
  EXPECT_LE(streamed_total, 0.85 * sync_total)
      << "streamed " << streamed_total << "s vs sync " << sync_total << "s";

  // Each overlapped phase must actually hide work behind its slowest lane.
  for (const char* phase : {"map", "sort", "reduce"}) {
    EXPECT_GT(streamed.stats.phase(phase).overlap_efficiency, 1.0) << phase;
    EXPECT_LT(streamed.stats.phase(phase).modeled_seconds,
              sync.stats.phase(phase).modeled_seconds)
        << phase;
  }
}

}  // namespace
}  // namespace lasagna::core
