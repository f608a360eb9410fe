#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "io/fastq.hpp"
#include "io/file_stream.hpp"
#include "io/io_stats.hpp"
#include "io/partition.hpp"
#include "io/record_stream.hpp"
#include "io/tempdir.hpp"

namespace lasagna::io {
namespace {

struct Pod {
  std::uint64_t key;
  std::uint32_t value;
  std::uint32_t pad;
};

TEST(TempDir, CreatesAndRemoves) {
  std::filesystem::path where;
  {
    ScopedTempDir dir("lasagna-test");
    where = dir.path();
    EXPECT_TRUE(std::filesystem::is_directory(where));
    std::ofstream(dir.file("x.txt")) << "hello";
    EXPECT_TRUE(std::filesystem::exists(dir.file("x.txt")));
    const auto sub = dir.subdir("nested");
    EXPECT_TRUE(std::filesystem::is_directory(sub));
  }
  EXPECT_FALSE(std::filesystem::exists(where));
}

TEST(TempDir, MoveTransfersOwnership) {
  std::filesystem::path where;
  {
    ScopedTempDir a("lasagna-test");
    where = a.path();
    ScopedTempDir b = std::move(a);
    EXPECT_EQ(b.path(), where);
    EXPECT_TRUE(std::filesystem::exists(where));
  }
  EXPECT_FALSE(std::filesystem::exists(where));
}

TEST(FileStream, WriteThenReadWithAccounting) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  const std::string payload = "0123456789abcdef";
  {
    WriteOnlyStream out(dir.file("data.bin"), stats);
    out.write_bytes(std::as_bytes(std::span(payload.data(), payload.size())));
    out.close();
  }
  EXPECT_EQ(stats.bytes_written(), payload.size());

  ReadOnlyStream in(dir.file("data.bin"), stats);
  EXPECT_EQ(in.size(), payload.size());
  std::string got(payload.size(), '\0');
  EXPECT_EQ(in.read_bytes(std::as_writable_bytes(
                std::span(got.data(), got.size()))),
            payload.size());
  EXPECT_EQ(got, payload);
  EXPECT_EQ(stats.bytes_read(), payload.size());
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(FileStream, ShortReadSetsEof) {
  ScopedTempDir dir("lasagna-test");
  {
    WriteOnlyStream out(dir.file("small.bin"));
    const char data[4] = {1, 2, 3, 4};
    out.write_bytes(std::as_bytes(std::span(data)));
  }
  ReadOnlyStream in(dir.file("small.bin"));
  std::byte buf[16];
  EXPECT_EQ(in.read_bytes(buf), 4u);
  EXPECT_TRUE(in.eof());
}

TEST(FileStream, CloseReportsAFailedFlush) {
  // The write fits in the stdio buffer, so only the flush at close meets
  // the full device.
  WriteOnlyStream out("/dev/full");
  const std::string payload(100, 'x');
  out.write_bytes(std::as_bytes(std::span(payload.data(), payload.size())));
  EXPECT_THROW(out.close(), std::system_error);
}

TEST(FileStream, OpenMissingThrows) {
  EXPECT_THROW(ReadOnlyStream in("/nonexistent/path/file.bin"),
               std::system_error);
}

TEST(RecordStream, RoundTrip) {
  ScopedTempDir dir("lasagna-test");
  std::vector<Pod> records;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    records.push_back(Pod{i * 17ull, i, 0});
  }
  write_all_records<Pod>(dir.file("recs.bin"), records);
  const auto back = read_all_records<Pod>(dir.file("recs.bin"));
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].key, records[i].key);
    EXPECT_EQ(back[i].value, records[i].value);
  }
}

TEST(RecordStream, BatchedReadsRespectLimit) {
  ScopedTempDir dir("lasagna-test");
  std::vector<Pod> records(100, Pod{7, 7, 0});
  write_all_records<Pod>(dir.file("recs.bin"), records);

  RecordReader<Pod> reader(dir.file("recs.bin"));
  EXPECT_EQ(reader.total_records(), 100u);
  std::vector<Pod> out;
  EXPECT_EQ(reader.read(out, 30), 30u);
  EXPECT_EQ(reader.remaining_records(), 70u);
  EXPECT_EQ(reader.read(out, 1000), 70u);
  EXPECT_EQ(reader.read(out, 10), 0u);
  EXPECT_EQ(out.size(), 100u);
}

TEST(RecordStream, TruncatedFileThrows) {
  ScopedTempDir dir("lasagna-test");
  {
    WriteOnlyStream out(dir.file("bad.bin"));
    const char junk[sizeof(Pod) + 3] = {};
    out.write_bytes(std::as_bytes(std::span(junk)));
  }
  RecordReader<Pod> reader(dir.file("bad.bin"));
  std::vector<Pod> out;
  EXPECT_THROW(reader.read(out, 10), std::runtime_error);
}

TEST(Fastq, ParsesFastqRecords) {
  std::istringstream in(
      "@read1 pos=5\nACGT\n+\nIIII\n"
      "@read2\nTTGGCC\n+\nIIIIII\n");
  SequenceReader reader(in);
  SequenceRecord r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.id, "read1 pos=5");
  EXPECT_EQ(r.bases, "ACGT");
  EXPECT_EQ(r.quality, "IIII");
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.bases, "TTGGCC");
  EXPECT_FALSE(reader.next(r));
  EXPECT_EQ(reader.count(), 2u);
}

TEST(Fastq, ParsesWrappedFasta) {
  std::istringstream in(">contig_1\nACGT\nACGT\nAC\n>contig_2\nGGGG\n");
  SequenceReader reader(in);
  SequenceRecord r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.bases, "ACGTACGTAC");
  EXPECT_TRUE(r.quality.empty());
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.bases, "GGGG");
  EXPECT_FALSE(reader.next(r));
}

TEST(Fastq, MalformedInputThrows) {
  {
    std::istringstream in("not a header\nACGT\n");
    SequenceReader reader(in);
    SequenceRecord r;
    EXPECT_THROW(reader.next(r), std::runtime_error);
  }
  {
    std::istringstream in("@r1\nACGT\nmissing plus\nIIII\n");
    SequenceReader reader(in);
    SequenceRecord r;
    EXPECT_THROW(reader.next(r), std::runtime_error);
  }
  {
    std::istringstream in("@r1\nACGT\n+\nII\n");  // quality length mismatch
    SequenceReader reader(in);
    SequenceRecord r;
    EXPECT_THROW(reader.next(r), std::runtime_error);
  }
}

TEST(Fastq, FastaRoundTripThroughFile) {
  ScopedTempDir dir("lasagna-test");
  std::vector<SequenceRecord> records{
      {"c1", std::string(150, 'A'), ""},
      {"c2", "ACGTACGT", ""},
  };
  write_fasta_file(dir.file("out.fa"), records, 70);
  const auto back = read_sequence_file(dir.file("out.fa"));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].bases, records[0].bases);
  EXPECT_EQ(back[1].bases, records[1].bases);
}

TEST(Fastq, FastqRoundTripThroughFile) {
  ScopedTempDir dir("lasagna-test");
  std::vector<SequenceRecord> records{{"r0", "ACGT", "IIII"},
                                      {"r1", "GG", ""}};
  write_fastq_file(dir.file("out.fq"), records);
  const auto back = read_sequence_file(dir.file("out.fq"));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].quality, "IIII");
  EXPECT_EQ(back[1].quality, "II");  // synthesized
}

TEST(Partition, RoutesRecordsByLength) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  PartitionSet<Pod> parts(dir.path() / "parts", "sfx", stats);
  for (unsigned l = 10; l < 14; ++l) {
    for (unsigned i = 0; i < l; ++i) {
      parts.append_one(l, Pod{l * 100ull + i, i, 0});
    }
  }
  parts.finalize();

  const auto lengths = parts.lengths();
  ASSERT_EQ(lengths.size(), 4u);
  EXPECT_EQ(lengths.front(), 10u);
  EXPECT_EQ(parts.count(12), 12u);
  EXPECT_EQ(parts.count(99), 0u);

  auto reader = parts.open(11);
  std::vector<Pod> out;
  reader.read(out, 1000);
  ASSERT_EQ(out.size(), 11u);
  EXPECT_EQ(out[0].key, 1100u);

  parts.drop(11);
  EXPECT_FALSE(std::filesystem::exists(parts.path(11)));
}

TEST(Partition, AppendAfterFinalizeThrows) {
  ScopedTempDir dir("lasagna-test");
  PartitionSet<Pod> parts(dir.path() / "parts", "pfx");
  parts.append_one(5, Pod{1, 2, 0});
  parts.finalize();
  EXPECT_THROW(parts.append_one(5, Pod{1, 2, 0}), std::logic_error);
}

TEST(Partition, OpenBeforeFinalizeThrows) {
  ScopedTempDir dir("lasagna-test");
  PartitionSet<Pod> parts(dir.path() / "parts", "pfx");
  parts.append_one(5, Pod{1, 2, 0});
  EXPECT_THROW((void)parts.open(5), std::logic_error);
}

TEST(IoStats, SnapshotDiff) {
  IoStats stats;
  stats.add_read(100);
  const auto before = stats.snapshot();
  stats.add_read(50);
  stats.add_write(70);
  EXPECT_EQ(stats.bytes_read() - before.bytes_read, 50u);
  EXPECT_EQ(stats.bytes_written() - before.bytes_written, 70u);
  EXPECT_EQ(stats.read_ops(), 2u);
}

}  // namespace
}  // namespace lasagna::io
