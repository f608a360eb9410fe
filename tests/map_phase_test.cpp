// Direct unit tests of the map phase: tuple counts, partition routing,
// strand/vertex numbering, agreement with host-computed fingerprints, and
// the distributed block-range restriction.
#include <gtest/gtest.h>

#include "core/map_phase.hpp"
#include "fingerprint/rabin_karp.hpp"
#include "graph/string_graph.hpp"
#include "io/fastq.hpp"
#include "io/record_stream.hpp"
#include "seq/dna.hpp"
#include "test_workspace.hpp"

namespace lasagna::core {
namespace {

using lasagna::testing::TestWorkspace;

std::filesystem::path write_reads(const TestWorkspace& tw,
                                  const std::vector<std::string>& reads) {
  std::vector<io::SequenceRecord> records;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    records.push_back({"r" + std::to_string(i), reads[i], ""});
  }
  const auto path = tw.dir().file("reads.fq");
  io::write_fastq_file(path, records);
  return path;
}

TEST(MapPhase, TupleCountMatchesFormula) {
  TestWorkspace tw;
  // 3 reads of length 10, l_min 6: lengths 6..9 -> 4 per role per strand.
  const auto path = write_reads(
      tw, {"ACGTACGTAC", "TTTTACGTAA", "GGGGCCCCAA"});
  MapOptions options;
  options.min_overlap = 6;
  const auto result = run_map_phase(tw.ws(), path, options);

  EXPECT_EQ(result.read_count, 3u);
  EXPECT_EQ(result.total_bases, 30u);
  EXPECT_EQ(result.max_read_length, 10u);
  // tuples = reads * strands * lengths * roles = 3 * 2 * 4 * 2.
  EXPECT_EQ(result.tuples_emitted, 48u);

  const auto lengths = result.suffixes->lengths();
  EXPECT_EQ(lengths, (std::vector<unsigned>{6, 7, 8, 9}));
  for (unsigned l = 6; l < 10; ++l) {
    EXPECT_EQ(result.suffixes->count(l), 6u) << l;  // 3 reads x 2 strands
    EXPECT_EQ(result.prefixes->count(l), 6u) << l;
  }
  EXPECT_EQ(result.read_lengths.size(), 3u);
  EXPECT_EQ(result.read_lengths[2], 10u);
}

TEST(MapPhase, RecordsMatchHostFingerprints) {
  TestWorkspace tw;
  const std::string read = "GATACCAGTA";  // the paper's Fig 5 read
  const auto path = write_reads(tw, {read});
  MapOptions options;
  options.min_overlap = 4;
  const auto result = run_map_phase(tw.ws(), path, options);

  const auto cfg = options.fingerprints;
  for (unsigned l = 4; l < 10; ++l) {
    // Suffix partition l holds the l-suffix fingerprints of the read and
    // of its reverse complement, tagged with the right vertices.
    const auto records =
        io::read_all_records<FpRecord>(result.suffixes->path(l), tw.io());
    ASSERT_EQ(records.size(), 2u) << l;
    const std::string rc = seq::reverse_complement(read);
    for (const auto& record : records) {
      const std::string& strand =
          graph::is_reverse(record.vertex) ? rc : read;
      const auto expected =
          fingerprint::fingerprint(strand.substr(strand.size() - l), cfg);
      EXPECT_EQ(record.fp, expected) << "l=" << l;
      EXPECT_EQ(graph::read_of(record.vertex), 0u);
    }
    const auto prefixes =
        io::read_all_records<FpRecord>(result.prefixes->path(l), tw.io());
    for (const auto& record : prefixes) {
      const std::string& strand =
          graph::is_reverse(record.vertex) ? rc : read;
      EXPECT_EQ(record.fp,
                fingerprint::fingerprint(strand.substr(0, l), cfg));
    }
  }
}

TEST(MapPhase, ReadsShorterThanMinOverlapEmitNothing) {
  TestWorkspace tw;
  const auto path = write_reads(tw, {"ACGT", "ACGTACGTACGTACGT"});
  MapOptions options;
  options.min_overlap = 8;
  const auto result = run_map_phase(tw.ws(), path, options);
  EXPECT_EQ(result.read_count, 2u);
  // Only the 16-base read contributes: lengths 8..15.
  EXPECT_EQ(result.tuples_emitted, 2u * 8 * 2);
  EXPECT_EQ(result.suffixes->lengths().size(), 8u);
}

TEST(MapPhase, BlockRangeRestriction) {
  TestWorkspace tw;
  std::vector<std::string> reads(10, "ACGTACGTAC");
  const auto path = write_reads(tw, reads);

  MapOptions options;
  options.min_overlap = 6;
  options.first_read = 3;
  options.max_reads = 4;
  const auto result = run_map_phase(tw.ws(), path, options);
  EXPECT_EQ(result.read_count, 4u);
  EXPECT_EQ(result.tuples_emitted, 4u * 2 * 4 * 2);

  // Vertices must carry the *global* read ids 3..6.
  const auto records =
      io::read_all_records<FpRecord>(result.suffixes->path(6), tw.io());
  for (const auto& r : records) {
    EXPECT_GE(graph::read_of(r.vertex), 3u);
    EXPECT_LT(graph::read_of(r.vertex), 7u);
  }
}

TEST(MapPhase, EmptyInputYieldsEmptyResult) {
  TestWorkspace tw;
  const auto path = write_reads(tw, {});
  MapOptions options;
  const auto result = run_map_phase(tw.ws(), path, options);
  EXPECT_EQ(result.read_count, 0u);
  EXPECT_EQ(result.tuples_emitted, 0u);
  EXPECT_TRUE(result.suffixes->lengths().empty());
}

}  // namespace
}  // namespace lasagna::core
