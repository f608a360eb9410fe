#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>

#include "io/fastq.hpp"
#include "io/tempdir.hpp"
#include "seq/datasets.hpp"
#include "seq/dna.hpp"
#include "seq/genome.hpp"
#include "seq/read_store.hpp"
#include "seq/simulator.hpp"

namespace lasagna::seq {
namespace {

TEST(Dna, EncodeDecodeRoundTrip) {
  for (char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_EQ(decode_base(encode_base(c)), c);
  }
  EXPECT_EQ(decode_base(encode_base('a')), 'A');
  EXPECT_THROW((void)encode_base('N'), std::invalid_argument);
  Base b;
  EXPECT_FALSE(try_encode_base('N', b));
}

TEST(Dna, ComplementPairs) {
  EXPECT_EQ(complement('A'), 'T');
  EXPECT_EQ(complement('T'), 'A');
  EXPECT_EQ(complement('C'), 'G');
  EXPECT_EQ(complement('G'), 'C');
  EXPECT_EQ(complement(complement(Base::A)), Base::A);
}

TEST(Dna, ReverseComplement) {
  EXPECT_EQ(reverse_complement("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(reverse_complement("AAAC"), "GTTT");
  EXPECT_EQ(reverse_complement(""), "");
  const std::string s = "GATACCAGTA";  // the paper's Fig 5 example read
  EXPECT_EQ(reverse_complement(reverse_complement(s)), s);
}

TEST(Dna, SanitizeReplacesOnlyBadBases) {
  const std::string out = sanitize("ACNNGT", 5);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(out.substr(0, 2), "AC");
  EXPECT_EQ(out.substr(4), "GT");
  EXPECT_TRUE(is_acgt(out));
  EXPECT_EQ(sanitize("ACNNGT", 5), out) << "must be deterministic";
}

TEST(PackedReads, StoreAndDecode) {
  PackedReads store;
  EXPECT_EQ(store.add("ACGTACGTA"), 0u);
  EXPECT_EQ(store.add("TTTT"), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.length(0), 9u);
  EXPECT_EQ(store.decode(0), "ACGTACGTA");
  EXPECT_EQ(store.decode(1), "TTTT");
  EXPECT_EQ(store.decode_rc(1), "AAAA");
  EXPECT_EQ(store.decode_rc(0), reverse_complement("ACGTACGTA"));
  EXPECT_EQ(store.total_bases(), 13u);
  EXPECT_EQ(store.max_length(), 9u);
}

TEST(PackedReads, CrossesWordBoundaries) {
  PackedReads store;
  const std::string long_read =
      "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACG";
  store.add(long_read);
  store.add(long_read);
  EXPECT_EQ(store.decode(0), long_read);
  EXPECT_EQ(store.decode(1), long_read);
}

TEST(PackedReads, BatchStreamCoversAllReads) {
  io::ScopedTempDir dir("lasagna-test");
  std::vector<io::SequenceRecord> records;
  for (int i = 0; i < 57; ++i) {
    records.push_back({"r" + std::to_string(i), "ACGTACGTAC", ""});
  }
  io::write_fastq_file(dir.file("reads.fq"), records);

  ReadBatchStream stream(dir.file("reads.fq"), 35);  // ~3 reads per batch
  ReadBatch batch;
  std::uint32_t seen = 0;
  while (stream.next(batch)) {
    EXPECT_EQ(batch.first_id, seen);
    EXPECT_LE(batch.reads.size(), 3u);
    seen += batch.size();
  }
  EXPECT_EQ(seen, 57u);
}

TEST(PackedReads, BatchStreamAdmitsOversizedSingleRead) {
  io::ScopedTempDir dir("lasagna-test");
  io::write_fastq_file(dir.file("reads.fq"),
                       {{"big", std::string(100, 'A'), ""}});
  ReadBatchStream stream(dir.file("reads.fq"), 10);
  ReadBatch batch;
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.reads.size(), 1u);
  EXPECT_FALSE(stream.next(batch));
}

/// Every batch of `path` from `start` to the end of the file.
std::vector<ReadBatch> batches_from(const std::filesystem::path& path,
                                    std::uint64_t batch_bases,
                                    BatchStart start = {}) {
  ReadBatchStream stream(path, batch_bases, start);
  std::vector<ReadBatch> out;
  ReadBatch batch;
  while (stream.next(batch)) out.push_back(batch);
  return out;
}

TEST(PackedReads, BatchStreamReopensAtEveryBatchStart) {
  // Reads of 5-34 bases (one with Ns, which are replaced by read id)
  // written as FASTQ and wrapped FASTA, with LF and CRLF line ends, blank
  // lines between records and no line end after the last record.
  std::vector<std::string> reads;
  for (unsigned i = 0; i < 40; ++i) {
    reads.push_back(random_genome(5 + (i * 7) % 30, i + 1));
  }
  reads[7] = "ACGTNNNNACGTNACGT";
  const auto fastq = [&](const std::string& eol, const std::string& gap) {
    std::string text;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      text += "@r" + std::to_string(i) + eol + reads[i] + eol + "+" + eol +
              std::string(reads[i].size(), 'I') + eol + gap;
    }
    return text;
  };
  const auto fasta = [&](const std::string& eol) {
    std::string text;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      text += ">r" + std::to_string(i) + eol;
      for (std::size_t at = 0; at < reads[i].size(); at += 7) {
        text += reads[i].substr(at, 7) + eol;
      }
    }
    return text;
  };
  const auto without_last_eol = [](std::string text) {
    while (text.back() == '\n' || text.back() == '\r') text.pop_back();
    return text;
  };
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"lf", fastq("\n", "")},
      {"crlf", fastq("\r\n", "")},
      {"blank lines", fastq("\n", "\n\n")},
      {"crlf blank lines", fastq("\r\n", "\r\n")},
      {"no final newline", without_last_eol(fastq("\n", ""))},
      {"crlf no final newline", without_last_eol(fastq("\r\n", ""))},
      {"wrapped fasta", fasta("\n")},
      {"wrapped fasta crlf", fasta("\r\n")},
      {"wrapped fasta no final newline", without_last_eol(fasta("\n"))},
  };

  io::ScopedTempDir dir("lasagna-test");
  for (const auto& [name, text] : inputs) {
    const std::filesystem::path path = dir.file("reads");
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    // The reader counts every byte it consumes, line ends included.
    {
      std::ifstream in(path, std::ios::binary);
      io::SequenceReader reader(in);
      io::SequenceRecord record;
      while (reader.next(record)) {
      }
      EXPECT_EQ(reader.count(), reads.size()) << name;
      EXPECT_EQ(reader.bytes(), text.size()) << name;
    }
    for (const std::uint64_t batch_bases : {1u, 40u, 100u}) {
      const std::vector<ReadBatch> all = batches_from(path, batch_bases);
      ASSERT_GT(all.size(), 2u) << name;
      EXPECT_EQ(all.front().offset, 0u) << name;
      EXPECT_EQ(all.back().first_id + all.back().size(), reads.size()) << name;
      EXPECT_EQ(all.front().reads.front(), reads.front()) << name;
      for (std::size_t k = 0; k < all.size(); ++k) {
        const std::vector<ReadBatch> tail =
            batches_from(path, batch_bases, all[k].start());
        const std::string at = name + " batch " + std::to_string(k) + " of " +
                               std::to_string(batch_bases) + " bases";
        ASSERT_EQ(tail.size(), all.size() - k) << at;
        for (std::size_t j = 0; j < tail.size(); ++j) {
          EXPECT_EQ(tail[j].first_id, all[k + j].first_id) << at;
          EXPECT_EQ(tail[j].offset, all[k + j].offset) << at;
          EXPECT_EQ(tail[j].reads, all[k + j].reads) << at;
        }
      }
    }
  }
}

TEST(Genome, DeterministicAndCorrectLength) {
  const std::string a = random_genome(1000, 5);
  const std::string b = random_genome(1000, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_TRUE(is_acgt(a));
  EXPECT_NE(a, random_genome(1000, 6));
}

TEST(Genome, UsesAllBases) {
  const std::string g = random_genome(4000, 1);
  for (char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_NE(g.find(c), std::string::npos);
  }
}

TEST(Genome, RepeatFractionCreatesDuplicateSegments) {
  GenomeSpec spec;
  spec.length = 50000;
  spec.seed = 9;
  spec.repeat_fraction = 0.5;
  spec.repeat_segment = 200;
  const std::string g = generate_genome(spec);
  EXPECT_EQ(g.size(), spec.length);

  // Count 64-mers appearing more than once; with 50% repeated segments this
  // must be substantial, and near zero for a repeat-free genome.
  auto duplicated_kmers = [](const std::string& s) {
    std::set<std::string_view> seen;
    std::size_t dups = 0;
    for (std::size_t i = 0; i + 64 <= s.size(); i += 64) {
      if (!seen.insert(std::string_view(s).substr(i, 64)).second) ++dups;
    }
    return dups;
  };
  EXPECT_GT(duplicated_kmers(g), 4u);
  EXPECT_EQ(duplicated_kmers(random_genome(50000, 9)), 0u);
}

TEST(Simulator, ReadsComeFromGenome) {
  const std::string genome = random_genome(5000, 3);
  SequencingSpec spec;
  spec.read_length = 50;
  spec.coverage = 10.0;
  spec.seed = 11;
  const auto reads = simulate_reads(genome, spec);
  EXPECT_EQ(reads.size(), 1000u);  // coverage * len / read_length

  for (const auto& r : reads) {
    ASSERT_EQ(r.bases.size(), 50u);
    const std::string truth = genome.substr(r.position, 50);
    EXPECT_EQ(r.bases, r.reverse ? reverse_complement(truth) : truth);
  }
  EXPECT_TRUE(std::any_of(reads.begin(), reads.end(),
                          [](const auto& r) { return r.reverse; }));
  EXPECT_TRUE(std::any_of(reads.begin(), reads.end(),
                          [](const auto& r) { return !r.reverse; }));
}

TEST(Simulator, ErrorRateInjectsSubstitutions) {
  const std::string genome = random_genome(2000, 4);
  SequencingSpec spec;
  spec.read_length = 100;
  spec.coverage = 20.0;
  spec.error_rate = 0.05;
  spec.reverse_probability = 0.0;
  const auto reads = simulate_reads(genome, spec);

  std::uint64_t mismatches = 0;
  std::uint64_t bases = 0;
  for (const auto& r : reads) {
    const std::string truth = genome.substr(r.position, 100);
    for (std::size_t i = 0; i < 100; ++i) {
      mismatches += r.bases[i] != truth[i];
    }
    bases += 100;
  }
  const double rate = static_cast<double>(mismatches) / bases;
  EXPECT_NEAR(rate, 0.05, 0.01);
}

TEST(Simulator, FastqOutputParsesBack) {
  io::ScopedTempDir dir("lasagna-test");
  const std::string genome = random_genome(1000, 6);
  SequencingSpec spec;
  spec.read_length = 40;
  spec.coverage = 4.0;
  const std::uint64_t count =
      simulate_to_fastq(genome, spec, dir.file("sim.fq"));
  const auto records = io::read_sequence_file(dir.file("sim.fq"));
  EXPECT_EQ(records.size(), count);
  EXPECT_EQ(records[0].bases.size(), 40u);
  EXPECT_NE(records[0].id.find("pos="), std::string::npos);
}

TEST(Simulator, RejectsGenomeShorterThanRead) {
  SequencingSpec spec;
  spec.read_length = 100;
  EXPECT_THROW(simulate_reads("ACGT", spec), std::invalid_argument);
}

TEST(Datasets, PaperShapesPreserved) {
  const auto specs = paper_datasets(4096.0);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "H.Chr14");
  EXPECT_EQ(specs[0].read_length, 101u);
  EXPECT_EQ(specs[0].min_overlap, 63u);
  EXPECT_EQ(specs[1].name, "Bumblebee");
  EXPECT_EQ(specs[1].min_overlap, 85u);
  EXPECT_EQ(specs[2].name, "Parakeet");
  EXPECT_EQ(specs[2].read_length, 150u);
  EXPECT_EQ(specs[2].min_overlap, 111u);
  EXPECT_EQ(specs[3].name, "H.Genome");
  EXPECT_EQ(specs[3].min_overlap, 63u);

  // Scaled sizes keep the paper's relative ordering.
  EXPECT_LT(specs[0].total_bases(), specs[1].total_bases());
  EXPECT_LT(specs[1].total_bases(), specs[2].total_bases());
  EXPECT_LT(specs[2].total_bases(), specs[3].total_bases());
  // Scale 4096: H.Genome ~30 M bases.
  EXPECT_NEAR(static_cast<double>(specs[3].total_bases()), 124.75e9 / 4096,
              1e6);
  // Coverage survives scaling (H.Genome ~40x).
  EXPECT_NEAR(specs[3].coverage(), 40.0, 8.0);
}

TEST(Datasets, LookupByNameAndUnknownThrows) {
  EXPECT_EQ(paper_dataset("Parakeet").read_length, 150u);
  EXPECT_THROW(paper_dataset("E.Coli"), std::invalid_argument);
}

TEST(Datasets, MaterializeWritesFastqOnceAndCaches) {
  io::ScopedTempDir dir("lasagna-test");
  const DatasetSpec spec = paper_dataset("H.Chr14", 100000.0);
  const auto path = materialize_dataset(spec, dir.path());
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto size = std::filesystem::file_size(path);
  const auto again = materialize_dataset(spec, dir.path());
  EXPECT_EQ(again, path);
  EXPECT_EQ(std::filesystem::file_size(again), size);

  const auto records = io::read_sequence_file(path);
  EXPECT_EQ(records.size(), spec.read_count);
  EXPECT_EQ(records[0].bases.size(), spec.read_length);
}

}  // namespace
}  // namespace lasagna::seq
