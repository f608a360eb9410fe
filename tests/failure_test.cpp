// Failure injection: the pipeline must fail loudly and cleanly — clear
// exception types, no partial state corruption, device budget violations
// surfacing as capacity errors.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "core/map_phase.hpp"
#include "core/pipeline.hpp"
#include "core/sort_phase.hpp"
#include "io/fastq.hpp"
#include "io/record_stream.hpp"
#include "io/tempdir.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"
#include "test_workspace.hpp"

namespace lasagna {
namespace {

using lasagna::testing::TestWorkspace;

TEST(Failure, MissingInputFileThrows) {
  core::AssemblyConfig config;
  core::Assembler assembler(config);
  io::ScopedTempDir dir("lasagna-fail");
  EXPECT_THROW((void)assembler.run(dir.file("nope.fastq"),
                                   dir.file("out.fa")),
               std::exception);
}

TEST(Failure, MalformedFastqThrows) {
  io::ScopedTempDir dir("lasagna-fail");
  std::ofstream(dir.file("bad.fastq"))
      << "@r0\nACGT\n+\nIIII\nnot a header\nACGT\n";
  core::AssemblyConfig config;
  core::Assembler assembler(config);
  EXPECT_THROW((void)assembler.run(dir.file("bad.fastq"),
                                   dir.file("out.fa")),
               std::runtime_error);
}

TEST(Failure, TruncatedPartitionFileDetectedDuringSort) {
  TestWorkspace tw;
  // A file whose size is not a multiple of the record size.
  {
    io::WriteOnlyStream out(tw.dir().file("broken.bin"), tw.io());
    const char junk[sizeof(core::FpRecord) * 3 + 5] = {};
    out.write_bytes(std::as_bytes(std::span(junk)));
  }
  core::BlockGeometry geometry{1024, 64};
  EXPECT_THROW((void)core::external_sort_file(tw.ws(),
                                              tw.dir().file("broken.bin"),
                                              tw.dir().file("out.bin"),
                                              geometry),
               std::runtime_error);
}

TEST(Failure, DeviceTooSmallForSingleReadSurfacesCapacityError) {
  io::ScopedTempDir dir("lasagna-fail");
  const std::string genome = seq::random_genome(2000, 1);
  seq::SequencingSpec spec;
  spec.read_length = 150;
  spec.coverage = 4.0;
  seq::simulate_to_fastq(genome, spec, dir.file("reads.fq"));

  core::AssemblyConfig config;
  config.min_overlap = 100;
  // 4 KiB device cannot hold even one 150-base read's kernel footprint.
  config.machine.device_memory_bytes = 4 << 10;
  core::Assembler assembler(config);
  EXPECT_THROW((void)assembler.run(dir.file("reads.fq"),
                                   dir.file("out.fa")),
               util::MemoryTracker::CapacityError);
}

TEST(Failure, UnwritableOutputPathThrows) {
  io::ScopedTempDir dir("lasagna-fail");
  const std::string genome = seq::random_genome(2000, 2);
  seq::SequencingSpec spec;
  spec.read_length = 80;
  spec.coverage = 5.0;
  seq::simulate_to_fastq(genome, spec, dir.file("reads.fq"));

  core::AssemblyConfig config;
  config.min_overlap = 60;
  core::Assembler assembler(config);
  EXPECT_THROW((void)assembler.run(dir.file("reads.fq"),
                                   "/nonexistent-dir/out.fa"),
               std::exception);
}

TEST(Failure, EmptyInputProducesEmptyOutputNotCrash) {
  io::ScopedTempDir dir("lasagna-fail");
  std::ofstream(dir.file("empty.fastq"));  // zero bytes
  core::AssemblyConfig config;
  core::Assembler assembler(config);
  const auto result =
      assembler.run(dir.file("empty.fastq"), dir.file("out.fa"));
  EXPECT_EQ(result.read_count, 0u);
  EXPECT_EQ(result.contigs.count, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir.file("out.fa")));
}

TEST(Failure, ReadsShorterThanMinOverlapProduceNoEdges) {
  io::ScopedTempDir dir("lasagna-fail");
  io::write_fastq_file(dir.file("short.fastq"),
                       {{"r0", "ACGTACGT", ""}, {"r1", "CGTACGTA", ""}});
  core::AssemblyConfig config;
  config.min_overlap = 50;  // longer than any read
  config.include_singletons = true;
  core::Assembler assembler(config);
  const auto result =
      assembler.run(dir.file("short.fastq"), dir.file("out.fa"));
  EXPECT_EQ(result.candidate_edges, 0u);
  EXPECT_EQ(result.contigs.count, 2u);  // both emitted as singletons
}

TEST(Failure, TruncatedFastqRecordThrowsTypedError) {
  io::ScopedTempDir dir("lasagna-fail");
  // Header + sequence, then EOF: no '+' separator, no quality.
  std::ofstream(dir.file("trunc.fastq")) << "@r0\nACGTACGTACGT\n";
  core::AssemblyConfig config;
  core::Assembler assembler(config);
  EXPECT_THROW((void)assembler.run(dir.file("trunc.fastq"),
                                   dir.file("out.fa")),
               std::runtime_error);
}

TEST(Failure, MissingQualityLineThrowsTypedError) {
  io::ScopedTempDir dir("lasagna-fail");
  std::ofstream(dir.file("noq.fastq")) << "@r0\nACGTACGT\n+\n";
  core::AssemblyConfig config;
  core::Assembler assembler(config);
  EXPECT_THROW((void)assembler.run(dir.file("noq.fastq"),
                                   dir.file("out.fa")),
               std::runtime_error);
}

TEST(Failure, EmptyQualityLineIsALengthMismatch) {
  io::ScopedTempDir dir("lasagna-fail");
  std::ofstream(dir.file("emptyq.fastq"))
      << "@r0\nACGTACGT\n+\n\n@r1\nACGTACGT\n+\nIIIIIIII\n";
  core::AssemblyConfig config;
  core::Assembler assembler(config);
  EXPECT_THROW((void)assembler.run(dir.file("emptyq.fastq"),
                                   dir.file("out.fa")),
               std::runtime_error);
}

TEST(Failure, CrlfLineEndingsParseCleanly) {
  io::ScopedTempDir dir("lasagna-fail");
  std::ofstream(dir.file("crlf.fastq"), std::ios::binary)
      << "@r0\r\nACGTACGTACGTACGT\r\n+\r\nIIIIIIIIIIIIIIII\r\n"
      << "@r1\r\nCGTACGTACGTACGTA\r\n+\r\nIIIIIIIIIIIIIIII\r\n";
  core::AssemblyConfig config;
  config.min_overlap = 8;
  config.include_singletons = true;
  core::Assembler assembler(config);
  const auto result =
      assembler.run(dir.file("crlf.fastq"), dir.file("out.fa"));
  // \r must be stripped, not folded into the sequence/quality bytes.
  EXPECT_EQ(result.read_count, 2u);
  EXPECT_EQ(result.total_bases, 32u);
}

TEST(Failure, ReadLongerThanLengthFieldThrowsInsteadOfTruncating) {
  // The map sizes its place table and emitter for reads of up to 512
  // bases. A longer read must stop the run with a message naming the read
  // and the limit; it must never be truncated (70,000 bases would also
  // wrap the uint16 read-length record to 4464).
  io::ScopedTempDir dir("lasagna-fail");
  auto assemble = [&dir](std::size_t length) {
    const auto fastq = dir.file("r" + std::to_string(length) + ".fastq");
    std::ofstream(fastq) << "@r0\n" << seq::random_genome(length, 5)
                         << "\n+\n" << std::string(length, 'I') << "\n";
    core::AssemblyConfig config;
    config.include_singletons = true;
    config.machine.host_memory_bytes = 8 << 20;
    config.machine.device_memory_bytes = 4 << 20;
    core::Assembler assembler(config);
    return assembler.run(fastq, dir.file("out.fa"));
  };
  EXPECT_EQ(assemble(512).total_bases, 512u);
  try {
    (void)assemble(513);
    ADD_FAILURE() << "a 513-base read assembled";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("read 0 is 513 bases"), std::string::npos) << what;
    EXPECT_NE(what.find("up to 512 bases"), std::string::npos) << what;
  }
  EXPECT_THROW((void)assemble(70000), std::runtime_error);
}

TEST(Failure, KeepWorkspaceEnvPreservesTempDir) {
  std::filesystem::path kept;
  {
    io::ScopedTempDir dir("lasagna-keep");
    kept = dir.path();
    std::ofstream(dir.file("evidence.log")) << "kept\n";
    ::setenv("LASAGNA_KEEP_WORKSPACE", "1", 1);
  }
  ::unsetenv("LASAGNA_KEEP_WORKSPACE");
  EXPECT_TRUE(std::filesystem::exists(kept / "evidence.log"));
  std::filesystem::remove_all(kept);
}

TEST(Failure, KeepWorkspaceZeroStillRemoves) {
  std::filesystem::path gone;
  {
    io::ScopedTempDir dir("lasagna-keep");
    gone = dir.path();
    ::setenv("LASAGNA_KEEP_WORKSPACE", "0", 1);
  }
  ::unsetenv("LASAGNA_KEEP_WORKSPACE");
  EXPECT_FALSE(std::filesystem::exists(gone));
}

TEST(Failure, WorkDirIsReusableAcrossRuns) {
  io::ScopedTempDir dir("lasagna-fail");
  const std::string genome = seq::random_genome(3000, 3);
  seq::SequencingSpec spec;
  spec.read_length = 80;
  spec.coverage = 8.0;
  seq::simulate_to_fastq(genome, spec, dir.file("reads.fq"));

  core::AssemblyConfig config;
  config.min_overlap = 60;
  config.work_dir = dir.path() / "work";
  core::Assembler a1(config);
  const auto r1 = a1.run(dir.file("reads.fq"), dir.file("o1.fa"));
  core::Assembler a2(config);
  const auto r2 = a2.run(dir.file("reads.fq"), dir.file("o2.fa"));
  EXPECT_EQ(r1.candidate_edges, r2.candidate_edges);
  EXPECT_EQ(r1.contigs.total_bases, r2.contigs.total_bases);
}

}  // namespace
}  // namespace lasagna
