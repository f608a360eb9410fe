// Layout-invariance suite for equal-fingerprint tie order (the DESIGN.md
// §5 fix). The reduce defines a canonical total order on each equal-
// fingerprint candidate group — suffix vertex ascending, then prefix
// vertex ascending — independent of sort-run boundaries, bucket layouts,
// window geometry and chunk counts. These tests permute every layout knob
// and assert the offer sequence, the greedy edge set and the final
// contigs are byte-identical for the serial, speculative and distributed
// (token, speculative) paths.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>

#include "core/pipeline.hpp"
#include "core/reduce_phase.hpp"
#include "dist/cluster.hpp"
#include "io/record_stream.hpp"
#include "io/tempdir.hpp"
#include "test_workspace.hpp"
#include "tie_corpus.hpp"

namespace lasagna::core {
namespace {

using lasagna::testing::make_tie_records;
using lasagna::testing::TestWorkspace;
using lasagna::testing::TieRecords;

struct Offer {
  graph::VertexId u;
  graph::VertexId v;
  std::uint64_t fp_hi;

  friend bool operator==(const Offer&, const Offer&) = default;
};

/// Run one partition through the windowed reduce and record the offer
/// sequence. `sfx`/`pfx` must be fp-sorted; equal-fp blocks may be in any
/// internal order.
std::vector<Offer> offer_sequence(const std::vector<FpRecord>& sfx,
                                  const std::vector<FpRecord>& pfx,
                                  std::uint64_t device_bytes,
                                  const std::string& tag) {
  TestWorkspace tw(device_bytes);
  SortedPartition part;
  part.length = 60;
  part.suffix_file = tw.dir().file("s_" + tag + ".bin");
  part.prefix_file = tw.dir().file("p_" + tag + ".bin");
  io::write_all_records<FpRecord>(part.suffix_file, sfx, tw.io());
  io::write_all_records<FpRecord>(part.prefix_file, pfx, tw.io());

  std::vector<Offer> offers;
  ReduceOptions options;
  options.candidate_sink = [&offers](graph::VertexId u, graph::VertexId v,
                                     std::uint16_t, const gpu::Key128& fp) {
    offers.push_back(Offer{u, v, fp.hi});
  };
  graph::StringGraph scratch(0);
  (void)reduce_partition(tw.ws(), part, scratch, options);
  return offers;
}

/// Shuffle each equal-fp block internally (a bucketed layout may deliver
/// ties in any order) without disturbing the fp sort.
std::vector<FpRecord> permute_ties(std::vector<FpRecord> records,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::size_t i = 0;
  while (i < records.size()) {
    std::size_t end = i + 1;
    while (end < records.size() && records[end].fp == records[i].fp) ++end;
    std::shuffle(records.begin() + static_cast<std::ptrdiff_t>(i),
                 records.begin() + static_cast<std::ptrdiff_t>(end), rng);
    i = end;
  }
  return records;
}

TEST(ReduceTieOrder, CanonicalOrderWithinGroups) {
  // One dense corpus, canonical layout, big window: offers inside each
  // tie group must come out suffix-ascending then prefix-ascending.
  const TieRecords corpus = make_tie_records(8, 5, 7, 11);
  const auto offers =
      offer_sequence(corpus.sfx, corpus.pfx, 1 << 22, "canon");
  ASSERT_EQ(offers.size(), corpus.expected_pairs);
  for (std::size_t i = 1; i < offers.size(); ++i) {
    if (offers[i].fp_hi != offers[i - 1].fp_hi) continue;  // new group
    const bool ordered =
        offers[i - 1].u < offers[i].u ||
        (offers[i - 1].u == offers[i].u && offers[i - 1].v < offers[i].v);
    EXPECT_TRUE(ordered) << "offer " << i << " out of canonical order";
  }
}

TEST(ReduceTieOrder, OfferSequenceInvariantAcrossLayouts) {
  // The pin: permuted tie blocks x window geometries (including ones that
  // split every cluster across window boundaries and ones that overflow
  // into the oversized-run fallback) must yield ONE offer sequence.
  const struct {
    std::size_t clusters, sfx_per, pfx_per;
  } shapes[] = {
      {6, 4, 4},     // moderate groups
      {2, 40, 25},   // giant groups (window-overflow fallback)
      {30, 1, 3},    // mostly non-ties
  };
  for (const auto& shape : shapes) {
    const TieRecords corpus =
        make_tie_records(shape.clusters, shape.sfx_per, shape.pfx_per, 23);
    std::vector<Offer> reference;
    for (const std::uint64_t device_bytes :
         {std::uint64_t{2048}, std::uint64_t{4096}, std::uint64_t{1} << 16,
          std::uint64_t{1} << 22}) {
      for (const std::uint64_t perm_seed : {0u, 1u, 2u, 3u}) {
        const auto sfx = perm_seed == 0
                             ? corpus.sfx
                             : permute_ties(corpus.sfx, perm_seed);
        const auto pfx = perm_seed == 0
                             ? corpus.pfx
                             : permute_ties(corpus.pfx, perm_seed * 31);
        const std::string tag = std::to_string(shape.clusters) + "_" +
                                std::to_string(device_bytes) + "_" +
                                std::to_string(perm_seed);
        const auto offers = offer_sequence(sfx, pfx, device_bytes, tag);
        if (reference.empty()) {
          reference = offers;
          ASSERT_EQ(reference.size(), corpus.expected_pairs) << tag;
        } else {
          EXPECT_EQ(offers, reference) << tag;
        }
      }
    }
  }
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// End-to-end pin over a sequenced tie corpus: every machine geometry
/// (chunk counts, sort-run boundaries), both resolution modes, and every
/// distributed strategy must produce byte-identical contigs.
class ReduceTieOrderE2E : public ::testing::Test {
 protected:
  static constexpr unsigned kMinOverlap = 55;

  static void SetUpTestSuite() {
    dir_ = new io::ScopedTempDir("lasagna-tie-order");
    fastq_ = new std::filesystem::path(dir_->file("ties.fq"));
    lasagna::testing::write_tie_fastq(*fastq_, /*copies=*/12,
                                      /*read_length=*/80,
                                      /*coverage=*/9.0, /*seed=*/4242);
    baseline_ = new std::string(run_single(1 << 19, 1 << 16, false, "base"));
  }

  static void TearDownTestSuite() {
    delete baseline_;
    baseline_ = nullptr;
    delete fastq_;
    fastq_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static std::string run_single(std::uint64_t host_bytes,
                                std::uint64_t device_bytes, bool speculative,
                                const std::string& tag) {
    core::AssemblyConfig config;
    config.min_overlap = kMinOverlap;
    config.machine.host_memory_bytes = host_bytes;
    config.machine.device_memory_bytes = device_bytes;
    config.speculative_reduce = speculative;
    core::Assembler assembler(config);
    const std::filesystem::path out = dir_->file(tag + ".fa");
    (void)assembler.run(*fastq_, out);
    return slurp(out);
  }

  static io::ScopedTempDir* dir_;
  static std::filesystem::path* fastq_;
  static std::string* baseline_;
};

io::ScopedTempDir* ReduceTieOrderE2E::dir_ = nullptr;
std::filesystem::path* ReduceTieOrderE2E::fastq_ = nullptr;
std::string* ReduceTieOrderE2E::baseline_ = nullptr;

TEST_F(ReduceTieOrderE2E, MachineGeometriesAgree) {
  // Different device/host budgets change block chunking, sort-run
  // boundaries and reduce window geometry; contigs must not move.
  const struct {
    std::uint64_t host, device;
  } machines[] = {
      {1 << 19, 1 << 15},
      {1 << 21, 1 << 16},
      {1 << 22, 1 << 18},
  };
  unsigned index = 0;
  for (const auto& m : machines) {
    for (const bool speculative : {false, true}) {
      const std::string tag = "m" + std::to_string(index) +
                              (speculative ? "_spec" : "_serial");
      EXPECT_EQ(run_single(m.host, m.device, speculative, tag), *baseline_)
          << tag;
      ++index;
    }
  }
}

TEST_F(ReduceTieOrderE2E, DistributedStrategiesAgree) {
  using dist::ClusterConfig;
  using dist::ReduceStrategy;
  for (const unsigned nodes : {1u, 2u, 4u}) {
    for (const ReduceStrategy strategy :
         {ReduceStrategy::kLengthToken, ReduceStrategy::kSpeculative}) {
      ClusterConfig config = ClusterConfig::supermic(nodes, 4096.0);
      config.min_overlap = kMinOverlap;
      config.machine.host_memory_bytes = 1 << 19;
      config.machine.device_memory_bytes = 1 << 16;
      config.reduce_strategy = strategy;
      const std::string tag =
          "dist_n" + std::to_string(nodes) + "_s" +
          std::to_string(static_cast<int>(strategy));
      const std::filesystem::path out = dir_->file(tag + ".fa");
      const auto result = dist::run_distributed(*fastq_, out, config);
      EXPECT_EQ(slurp(out), *baseline_) << tag;
      if (strategy == ReduceStrategy::kSpeculative) {
        EXPECT_GE(result.reduce_rounds, 1u) << tag;
      } else {
        EXPECT_EQ(result.reduce_rounds, 0u) << tag;
      }
    }
  }
}

}  // namespace
}  // namespace lasagna::core
