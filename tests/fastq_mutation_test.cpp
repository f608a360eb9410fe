// Seeded mutation test for the sequence reader, the first parser of
// untrusted input bytes: valid FASTQ and FASTA text, damaged with bit
// flips, byte overwrites, truncations, random tails and inserted or deleted
// line-structure bytes, must parse into records or throw
// std::runtime_error, through both io::SequenceReader and
// seq::ReadBatchStream. Neither may crash, hang, or hold more record bytes
// than the input has.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "io/fastq.hpp"
#include "io/tempdir.hpp"
#include "seq/genome.hpp"
#include "seq/read_store.hpp"

namespace lasagna {
namespace {

/// Valid input text: FASTQ records, or FASTA records wrapped at 60 bases.
std::string valid_text(bool fastq, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<io::SequenceRecord> records;
  for (int i = 0; i < 8; ++i) {
    const std::size_t length = 1 + rng() % 150;
    io::SequenceRecord r;
    r.id = "read" + std::to_string(i) + " len=" + std::to_string(length);
    r.bases = seq::random_genome(length, rng());
    if (fastq) r.quality.assign(length, static_cast<char>('!' + rng() % 40));
    records.push_back(std::move(r));
  }
  std::ostringstream out;
  if (fastq) {
    io::write_fastq(out, records);
  } else {
    io::write_fasta(out, records, 60);
  }
  return out.str();
}

/// The reader contract on one input: records or std::runtime_error, and
/// never more record bytes (ids, bases and qualities) or records than the
/// input has bytes. The record bound also stops a parser that would loop.
void expect_sequence_reader_contract(const std::string& text,
                                     const std::string& what) {
  std::istringstream in(text);
  io::SequenceReader reader(in);
  io::SequenceRecord record;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  try {
    while (reader.next(record)) {
      bytes += record.id.size() + record.bases.size() + record.quality.size();
      if (++records > text.size()) {
        ADD_FAILURE() << what << ": more records than input bytes";
        return;
      }
    }
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
  }
  EXPECT_LE(bytes, text.size()) << what;
}

/// The same contract through the batch stream the pipeline reads with.
void expect_batch_stream_contract(const std::filesystem::path& path,
                                  const std::string& text,
                                  const std::string& what) {
  {
    std::ofstream(path, std::ios::binary) << text;
  }
  std::uint64_t bases = 0;
  std::uint64_t reads = 0;
  try {
    seq::ReadBatchStream stream(path, 256);
    seq::ReadBatch batch;
    while (stream.next(batch)) {
      for (const std::string& read : batch.reads) bases += read.size();
      reads += batch.size();
      if (reads > text.size()) {
        ADD_FAILURE() << what << ": more reads than input bytes";
        return;
      }
    }
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
  }
  EXPECT_LE(bases, text.size()) << what;
}

TEST(SequenceReader, SeededMutationsParseOrReject) {
  io::ScopedTempDir dir("lasagna-fastq-mutation");
  std::size_t files = 0;
  std::mt19937_64 rng(0xfa57);
  auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  const std::string structure = "\n\r@+>";
  for (const bool fastq : {true, false}) {
    for (const std::uint64_t seed : {3u, 17u}) {
      const std::string text = valid_text(fastq, seed);
      const std::string at = std::string(fastq ? "FASTQ" : "FASTA") +
                             " seed " + std::to_string(seed);
      expect_sequence_reader_contract(text, at + " unmodified");
      std::vector<std::pair<std::string, std::string>> mutants;
      for (int trial = 0; trial < 128; ++trial) {
        std::string m = text;
        m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
        mutants.emplace_back(m, "bit flip");
        m = text;
        m[pick(m.size())] = static_cast<char>(rng());
        mutants.emplace_back(m, "overwrite");
        mutants.emplace_back(text.substr(0, pick(text.size())), "truncate");
        m = text;
        for (std::size_t k = 1 + pick(64); k > 0; --k) {
          m.push_back(static_cast<char>(rng()));
        }
        mutants.emplace_back(m, "tail");
        m = text;
        for (std::size_t k = 1 + pick(4); k > 0; --k) {
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(pick(m.size() + 1)),
                   structure[pick(structure.size())]);
        }
        mutants.emplace_back(m, "insert");
        m = text;
        for (std::size_t k = 1 + pick(4); k > 0; --k) {
          std::vector<std::size_t> hits;
          for (std::size_t i = 0; i < m.size(); ++i) {
            if (structure.find(m[i]) != std::string::npos) hits.push_back(i);
          }
          if (hits.empty()) break;
          m.erase(hits[pick(hits.size())], 1);
        }
        mutants.emplace_back(m, "delete");
      }
      for (const auto& [mutant, kind] : mutants) {
        expect_sequence_reader_contract(mutant, at + " " + kind);
        // A fresh file per mutant: truncating and rewriting one file can
        // wait for its earlier blocks to reach the disk.
        expect_batch_stream_contract(
            dir.file("m" + std::to_string(files++) + ".fq"), mutant,
            at + " " + kind);
      }
    }
  }
}

}  // namespace
}  // namespace lasagna
