// Crash-recovery suite: kill the pipeline in each phase with an injected
// fatal fault, resume from the checkpoint manifest, and require (a) contigs
// byte-identical to an uninterrupted run, (b) identical result counters,
// (c) strictly less disk traffic in the resumed run than a full rerun.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "io/fault_injector.hpp"
#include "io/tempdir.hpp"
#include "obs/metrics.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"
#include "sidecar_damage.hpp"
#include "util/fnv.hpp"

namespace lasagna {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Two-file dataset plus the small-memory machine shape that forces the
/// external sort into several level-1 runs per partition (so the per-run
/// checkpoints matter).
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string genome = seq::random_genome(4000, 17);
    seq::SequencingSpec spec;
    spec.read_length = 100;
    spec.coverage = 6.0;
    spec.seed = 21;
    seq::simulate_to_fastq(genome, spec, dir_.file("a.fq"));
    spec.seed = 22;
    seq::simulate_to_fastq(genome, spec, dir_.file("b.fq"));
    fastqs_ = {dir_.file("a.fq"), dir_.file("b.fq")};
  }

  core::AssemblyConfig config(const std::string& scenario) const {
    core::AssemblyConfig c;
    c.min_overlap = 80;
    c.include_singletons = true;
    // ~680 records per host block; per-length partitions here hold a few
    // thousand records, so every partition sorts through multiple runs.
    c.machine.host_memory_bytes = 32 << 10;
    c.machine.device_memory_bytes = 1 << 20;
    c.work_dir = dir_.path() / ("work-" + scenario);
    return c;
  }

  /// The uninterrupted reference run for one scenario's work dir.
  core::AssemblyResult run_full(const std::string& scenario) {
    core::Assembler assembler(config(scenario));
    return assembler.run(fastqs_, out(scenario));
  }

  std::filesystem::path out(const std::string& scenario) const {
    return dir_.file("out-" + scenario + ".fa");
  }

  /// Kill a run with `spec` installed, then resume without faults. Asserts
  /// the crash surfaced as FaultError and returns the resumed result.
  core::AssemblyResult crash_and_resume(const std::string& scenario,
                                        const std::string& spec) {
    auto& registry = obs::MetricsRegistry::global();
    const std::int64_t injected_before =
        registry.value("io.faults_injected");
    const std::int64_t fatal_before = registry.value("io.faults_fatal");
    {
      auto injector = io::FaultInjector::parse(spec);
      io::FaultInjector::ScopedInstall guard(injector.get());
      core::Assembler assembler(config(scenario));
      EXPECT_THROW((void)assembler.run(fastqs_, out(scenario)),
                   io::FaultError);
      EXPECT_GE(injector->fatal(), 1u);
      // The injector's counters mirror into the global metrics registry.
      EXPECT_EQ(registry.value("io.faults_injected") - injected_before,
                static_cast<std::int64_t>(injector->injected()));
      EXPECT_EQ(registry.value("io.faults_fatal") - fatal_before,
                static_cast<std::int64_t>(injector->fatal()));
    }
    core::AssemblyConfig resumed = config(scenario);
    resumed.resume = true;
    core::Assembler assembler(resumed);
    return assembler.run(fastqs_, out(scenario));
  }

  void expect_equal_results(const core::AssemblyResult& a,
                            const core::AssemblyResult& b) {
    EXPECT_EQ(a.read_count, b.read_count);
    EXPECT_EQ(a.total_bases, b.total_bases);
    EXPECT_EQ(a.tuples_emitted, b.tuples_emitted);
    EXPECT_EQ(a.records_sorted, b.records_sorted);
    EXPECT_EQ(a.candidate_edges, b.candidate_edges);
    EXPECT_EQ(a.accepted_edges, b.accepted_edges);
    EXPECT_EQ(a.false_positives, b.false_positives);
    EXPECT_EQ(a.graph_edges, b.graph_edges);
    EXPECT_EQ(a.paths, b.paths);
    EXPECT_EQ(a.contigs.count, b.contigs.count);
    EXPECT_EQ(a.contigs.total_bases, b.contigs.total_bases);
    EXPECT_EQ(a.contigs.n50, b.contigs.n50);
    EXPECT_EQ(a.contigs.max_length, b.contigs.max_length);
  }

  /// The recovery contract for one phase-kill scenario.
  void check_scenario(const std::string& scenario, const std::string& spec,
                      unsigned min_phases_resumed) {
    const core::AssemblyResult full = run_full("ref");
    const std::string reference = slurp(out("ref"));

    const core::AssemblyResult resumed = crash_and_resume(scenario, spec);
    EXPECT_EQ(slurp(out(scenario)), reference) << scenario;
    expect_equal_results(resumed, full);
    EXPECT_GE(resumed.phases_resumed, min_phases_resumed);
    // The whole point of resuming: strictly less disk work than a rerun
    // (total_disk_bytes includes the FASTQ streaming charged per phase).
    EXPECT_LT(resumed.stats.total_disk_bytes(),
              full.stats.total_disk_bytes());
  }

  io::ScopedTempDir dir_{"lasagna-recovery"};
  std::vector<std::filesystem::path> fastqs_;
};

TEST_F(RecoveryTest, KilledDuringLoadResumesPastFinishedFiles) {
  // First touch of b.fq dies: a.fq's load checkpoint survives, so the
  // resumed run re-streams only the second file in the load phase.
  check_scenario("load", "read:nth=1,match=b.fq", 0);
}

TEST_F(RecoveryTest, KilledDuringMapResumesWithLoadSkipped) {
  check_scenario("map", "write:nth=5,match=sfx_", 1);
}

TEST_F(RecoveryTest, KilledInsideStreamedMapEmitterResumes) {
  // The fault fires on the streamed map's background emitter thread (the
  // partition appends drain one batch behind the fingerprint kernels); it
  // must surface on the main thread as FaultError — not hang or abort —
  // and leave a manifest the resumed run can pick up.
  check_scenario("map-emit", "write:nth=7,match=pfx_", 1);
}

TEST_F(RecoveryTest, KilledDuringSortResumesFinishedRuns) {
  // The 4th level-1 run write dies, after at least one partition file (and
  // several runs) have been checkpointed.
  check_scenario("sort", "write:nth=4,match=.run", 2);
}

TEST_F(RecoveryTest, KilledDuringReduceResumesWithSortSkipped) {
  check_scenario("reduce", "read:nth=10,match=.sorted", 3);
}

TEST_F(RecoveryTest, KilledDuringCompressResumesEverythingElse) {
  check_scenario("compress", "write:nth=1,match=.fa.tmp", 4);
}

TEST_F(RecoveryTest, CrashNeverLeavesAPartialContigFile) {
  auto injector = io::FaultInjector::parse("write:nth=1,match=.fa.tmp");
  io::FaultInjector::ScopedInstall guard(injector.get());
  core::Assembler assembler(config("atomic"));
  EXPECT_THROW((void)assembler.run(fastqs_, out("atomic")), io::FaultError);
  EXPECT_FALSE(std::filesystem::exists(out("atomic")));
  EXPECT_FALSE(std::filesystem::exists(out("atomic").string() + ".tmp"));
}

TEST_F(RecoveryTest, ResumeAfterSuccessfulRunSkipsEveryPhaseButCompress) {
  (void)run_full("noop");
  core::AssemblyConfig c = config("noop");
  c.resume = true;
  core::Assembler assembler(c);
  const auto resumed = assembler.run(fastqs_, out("noop"));
  EXPECT_EQ(resumed.phases_resumed, 4u);  // compress always re-runs
  for (const auto& phase : resumed.stats.phases()) {
    if (phase.name != "compress") {
      EXPECT_TRUE(phase.resumed) << phase.name;
    }
  }
}

TEST_F(RecoveryTest, DamagedSidecarsAreRecomputed) {
  // Each single-node sidecar kind, cut, extended or bit-flipped after a
  // finished run: it must load as missing, so the phase it restores runs
  // again and the contigs match the uninterrupted run byte for byte.
  struct Kind {
    const char* sidecar;
    core::GraphMode graph;
    const char* phase;  ///< the phase the sidecar restores
    const char* drop;   ///< sidecar removed first, or nullptr
  };
  const Kind kinds[] = {
      {"checkpoint.read_lengths.bin", core::GraphMode::kGreedy, "map",
       nullptr},
      {"checkpoint.graph.bin", core::GraphMode::kGreedy, "reduce", nullptr},
      // An intact unitig graph restores the reduce without reading the full
      // graph, so the full graph is damaged in the state a run killed
      // during the reduction leaves: no unitig graph yet.
      {"checkpoint.full_graph.bin", core::GraphMode::kReduced, "reduce",
       "checkpoint.reduced_graph.bin"},
      // The reduce restores from the full graph; the reduction re-runs.
      {"checkpoint.reduced_graph.bin", core::GraphMode::kReduced,
       "reduction", nullptr},
  };
  for (const Kind& kind : kinds) {
    for (const testing::SidecarDamage damage : testing::kSidecarDamages) {
      const std::string scenario = std::string(kind.sidecar) + "-" +
                                   testing::damage_name(damage);
      core::AssemblyConfig c = config(scenario);
      c.graph = kind.graph;
      const core::AssemblyResult full =
          core::Assembler(c).run(fastqs_, out(scenario));
      const std::string reference = slurp(out(scenario));

      if (kind.drop != nullptr) {
        ASSERT_TRUE(std::filesystem::remove(c.work_dir / kind.drop));
      }
      testing::damage_sidecar(c.work_dir / kind.sidecar, damage);
      c.resume = true;
      const core::AssemblyResult resumed =
          core::Assembler(c).run(fastqs_, out(scenario));
      EXPECT_EQ(slurp(out(scenario)), reference) << scenario;
      expect_equal_results(resumed, full);
      EXPECT_EQ(resumed.full_edges, full.full_edges) << scenario;
      EXPECT_EQ(resumed.transitive_removed, full.transitive_removed)
          << scenario;
      // Only the damaged sidecar's phase runs again, with the reduction
      // downstream of a re-run reduce, and compress, which always runs.
      for (const auto& phase : resumed.stats.phases()) {
        const bool reruns =
            phase.name == kind.phase || phase.name == "compress" ||
            (phase.name == "reduction" && std::string(kind.phase) == "reduce");
        EXPECT_EQ(phase.resumed, !reruns) << scenario << " " << phase.name;
      }
    }
  }
}

TEST_F(RecoveryTest, ChangedInputInvalidatesTheCheckpoint) {
  (void)run_full("fpr");
  // Appending one record changes the input fingerprint: resume must fall
  // back to a fresh run rather than splice stale state.
  std::ofstream(fastqs_[1], std::ios::app)
      << "@extra\n" << std::string(90, 'A') << "\n+\n"
      << std::string(90, 'I') << "\n";
  core::AssemblyConfig c = config("fpr");
  c.resume = true;
  core::Assembler assembler(c);
  const auto resumed = assembler.run(fastqs_, out("fpr"));
  EXPECT_EQ(resumed.phases_resumed, 0u);

  // Flipping one base in place keeps every name and size: only the content
  // tells the inputs apart, and the resume must still start fresh.
  (void)run_full("flip");
  const std::string text = slurp(fastqs_[0]);
  const std::size_t base = text.find('\n') + 1;  // read 0's first base
  {
    std::fstream edit(fastqs_[0],
                      std::ios::in | std::ios::out | std::ios::binary);
    edit.seekp(static_cast<std::streamoff>(base));
    edit.put(text[base] == 'A' ? 'C' : 'A');
  }
  ASSERT_EQ(std::filesystem::file_size(fastqs_[0]), text.size());
  core::AssemblyConfig flip = config("flip");
  flip.resume = true;
  core::Assembler flipped(flip);
  EXPECT_EQ(flipped.run(fastqs_, out("flip")).phases_resumed, 0u);
  (void)run_full("fresh");
  EXPECT_EQ(slurp(out("flip")), slurp(out("fresh")));
}

TEST_F(RecoveryTest, ChangedParametersInvalidateTheCheckpoint) {
  (void)run_full("cfg");
  core::AssemblyConfig c = config("cfg");
  c.resume = true;
  c.min_overlap = 81;  // different partitioning: stale runs unusable
  core::Assembler assembler(c);
  const auto resumed = assembler.run(fastqs_, out("cfg"));
  EXPECT_EQ(resumed.phases_resumed, 0u);
}

TEST_F(RecoveryTest, OutputFiltersResumeAFinishedRun) {
  // The minimum contig length and the singleton switch only filter the
  // FASTA, which compress rewrites on every run, so they stay out of the
  // config hash: a finished checkpoint restores every other phase under new
  // values and writes what a fresh run with them writes.
  (void)run_full("filters");
  const std::string unfiltered = slurp(out("filters"));
  struct Filter {
    const char* name;
    std::uint32_t min_contig_length;
    bool include_singletons;
  };
  for (const Filter filter :
       {Filter{"min-contig", 400, true}, Filter{"no-singletons", 0, false}}) {
    core::AssemblyConfig c = config("filters");
    c.min_contig_length = filter.min_contig_length;
    c.include_singletons = filter.include_singletons;
    c.resume = true;
    const std::string resumed_out = std::string("resumed-") + filter.name;
    EXPECT_EQ(core::Assembler(c).run(fastqs_, out(resumed_out)).phases_resumed,
              4u)
        << filter.name;

    const std::string fresh_out = std::string("fresh-") + filter.name;
    c.work_dir = config(fresh_out).work_dir;
    c.resume = false;
    (void)core::Assembler(c).run(fastqs_, out(fresh_out));
    const std::string filtered = slurp(out(fresh_out));
    EXPECT_EQ(slurp(out(resumed_out)), filtered) << filter.name;
    EXPECT_NE(filtered, unfiltered) << filter.name;  // the filter bites
  }
}

TEST_F(RecoveryTest, MalformedKeySuffixStartsTheRunFresh) {
  // A map entry whose partition number does not parse rejects the
  // manifest, so the resume starts fresh into the same contigs instead of
  // failing on the key.
  (void)run_full("suffix");
  const std::filesystem::path manifest =
      config("suffix").work_dir / "checkpoint.manifest";
  std::string text = slurp(manifest);
  const std::string entry = "entry map:sfx:";
  const std::size_t at = text.find(entry);
  ASSERT_NE(at, std::string::npos);
  text[at + entry.size()] = 'p';
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << text;

  core::AssemblyConfig c = config("suffix");
  c.resume = true;
  EXPECT_EQ(core::Assembler(c).run(fastqs_, out("suffix-resumed"))
                .phases_resumed,
            0u);
  EXPECT_EQ(slurp(out("suffix-resumed")), slurp(out("suffix")));
}

TEST(CheckpointManager, RecordsSurviveReloadAndRejectMismatchedGuards) {
  io::ScopedTempDir dir("lasagna-ckpt");
  {
    core::CheckpointManager cm(dir.path(), 0x1111, 0x2222);
    cm.reset();
    cm.record("phase:map", {{"read_count", 42}, {"total_bases", 4200}});
    cm.record("sort:run:sfx_00080.sorted:0", {{"records", 7}});
  }
  core::CheckpointManager reloaded(dir.path(), 0x1111, 0x2222);
  ASSERT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.counter("phase:map", "read_count"), 42u);
  EXPECT_EQ(reloaded.counter("phase:map", "total_bases"), 4200u);
  EXPECT_TRUE(reloaded.has("sort:run:sfx_00080.sorted:0"));
  EXPECT_EQ(reloaded.keys_with_prefix("sort:run:").size(), 1u);

  core::CheckpointManager wrong_input(dir.path(), 0x9999, 0x2222);
  EXPECT_FALSE(wrong_input.load());
  core::CheckpointManager wrong_config(dir.path(), 0x1111, 0x9999);
  EXPECT_FALSE(wrong_config.load());
}

TEST(CheckpointManager, SidecarsRoundTripAndRejectDamage) {
  io::ScopedTempDir dir("lasagna-ckpt");
  io::IoStats stats;
  core::CheckpointManager cm(dir.path(), 1, 2, stats);
  cm.reset();
  const std::vector<std::uint32_t> records = {7, 11, 13};
  cm.save<std::uint32_t>("x.bin", records);
  EXPECT_FALSE(std::filesystem::exists(dir.file("checkpoint.x.bin.tmp")));
  EXPECT_EQ(stats.bytes_written(),
            core::CheckpointManager::kSidecarHeaderBytes +
                sizeof(std::uint32_t) * records.size());
  EXPECT_EQ(cm.load<std::uint32_t>("x.bin"), records);
  EXPECT_EQ(stats.bytes_read(), stats.bytes_written());
  cm.save<std::uint32_t>("empty.bin", {});
  EXPECT_EQ(cm.load<std::uint32_t>("empty.bin"),
            std::vector<std::uint32_t>{});

  EXPECT_FALSE(cm.load<std::uint32_t>("missing.bin").has_value());
  // Same bytes read as records of another size.
  EXPECT_FALSE(cm.load<std::uint16_t>("x.bin").has_value());
  for (const testing::SidecarDamage damage : testing::kSidecarDamages) {
    cm.save<std::uint32_t>("x.bin", records);
    testing::damage_sidecar(dir.file("checkpoint.x.bin"), damage);
    EXPECT_FALSE(cm.load<std::uint32_t>("x.bin").has_value())
        << testing::damage_name(damage);
  }
  // A header alone, torn mid-way.
  cm.save<std::uint32_t>("x.bin", records);
  std::filesystem::resize_file(dir.file("checkpoint.x.bin"), 20);
  EXPECT_FALSE(cm.load<std::uint32_t>("x.bin").has_value());

  // Seeded mutations of a saved sidecar: bit flips, truncations, random
  // tails, and each header field near every power of two over the intact
  // payload, its checksum recomputed. load() returns the saved records or
  // nothing, and never throws.
  std::mt19937_64 rng(0x51dec4);
  std::vector<std::uint32_t> saved(64);
  for (std::uint32_t& r : saved) r = static_cast<std::uint32_t>(rng());
  cm.save<std::uint32_t>("seed.bin", saved);
  const std::string image = slurp(dir.file("checkpoint.seed.bin"));
  const std::string payload =
      image.substr(core::CheckpointManager::kSidecarHeaderBytes);
  std::size_t mutants = 0;
  auto expect_saved_or_nothing = [&](const std::string& bytes,
                                     const std::string& what) {
    const std::string name = "m" + std::to_string(mutants++) + ".bin";
    std::ofstream(dir.file("checkpoint." + name), std::ios::binary) << bytes;
    std::optional<std::vector<std::uint32_t>> loaded;
    ASSERT_NO_THROW(loaded = cm.load<std::uint32_t>(name)) << what;
    if (loaded.has_value()) {
      EXPECT_EQ(*loaded, saved) << what;
    }
    std::filesystem::remove(dir.file("checkpoint." + name));
  };
  auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  expect_saved_or_nothing(image, "unmodified");
  for (int trial = 0; trial < 256; ++trial) {
    std::string m = image;
    m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
    expect_saved_or_nothing(m, "bit flip " + std::to_string(trial));
    expect_saved_or_nothing(image.substr(0, pick(image.size())),
                            "truncate " + std::to_string(trial));
    m = image;
    for (std::size_t k = 1 + pick(64); k > 0; --k) {
      m.push_back(static_cast<char>(rng()));
    }
    expect_saved_or_nothing(m, "tail " + std::to_string(trial));
  }
  // Header fields: magic (u64), version (u32), record size (u32), count
  // (u64), then the payload checksum (u64), which is recomputed.
  const std::uint64_t checksum = util::fnv::fold_bytes(
      util::fnv::kOffset, payload.data(), payload.size());
  struct Field {
    const char* name;
    std::size_t offset;
    std::size_t bytes;
  };
  for (const Field field : {Field{"magic", 0, 8}, Field{"version", 8, 4},
                            Field{"record size", 12, 4},
                            Field{"count", 16, 8}}) {
    for (unsigned bit = 0; bit < 8 * field.bytes; ++bit) {
      const std::uint64_t power = std::uint64_t{1} << bit;
      for (const std::uint64_t value : {power - 1, power, power + 1}) {
        std::string m = image;
        std::memcpy(m.data() + field.offset, &value, field.bytes);
        std::memcpy(m.data() + 24, &checksum, sizeof(checksum));
        expect_saved_or_nothing(
            m, std::string(field.name) + " = " + std::to_string(value));
      }
    }
  }

  // reset() clears sidecars with the manifest.
  cm.reset();
  EXPECT_FALSE(std::filesystem::exists(dir.file("checkpoint.empty.bin")));
}

TEST(CheckpointManager, RecordAppendsOneLineInPlace) {
  io::ScopedTempDir dir("lasagna-ckpt");
  core::CheckpointManager cm(dir.path(), 1, 2);
  cm.reset();
  const auto manifest = dir.file("checkpoint.manifest");
  auto inode = [&manifest] {
    struct stat st {};
    EXPECT_EQ(::stat(manifest.c_str(), &st), 0);
    return st.st_ino;
  };
  const auto first_inode = inode();
  std::uintmax_t size = std::filesystem::file_size(manifest);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::string key = "sort:run:sfx_00080.sorted:" + std::to_string(i);
    cm.record(key, {{"records", i}});
    size += ("entry " + key + " records=" + std::to_string(i) + "\n").size();
    ASSERT_EQ(std::filesystem::file_size(manifest), size) << i;
    ASSERT_EQ(inode(), first_inode) << i;
  }
  // A later line for a key wins on reload.
  cm.record("sort:run:sfx_00080.sorted:7", {{"records", 70}});
  core::CheckpointManager reloaded(dir.path(), 1, 2);
  ASSERT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.keys_with_prefix("sort:run:").size(), 100u);
  EXPECT_EQ(reloaded.counter("sort:run:sfx_00080.sorted:7", "records"), 70u);
  EXPECT_EQ(reloaded.counter("sort:run:sfx_00080.sorted:8", "records"), 8u);
}

TEST(CheckpointManager, TornAppendKeepsEveryCompleteEntry) {
  io::ScopedTempDir dir("lasagna-ckpt");
  const auto manifest = dir.file("checkpoint.manifest");
  auto chop = [&manifest](std::uintmax_t bytes) {
    std::filesystem::resize_file(
        manifest, std::filesystem::file_size(manifest) - bytes);
  };
  {
    core::CheckpointManager cm(dir.path(), 1, 2);
    cm.reset();
    cm.record("phase:load", {{"read_count", 10}});
    cm.record("phase:map", {{"read_count", 10}});
  }
  // A crash mid-append: the last line loses its tail and its newline.
  chop(5);
  {
    core::CheckpointManager cm(dir.path(), 1, 2);
    ASSERT_TRUE(cm.load());
    EXPECT_EQ(cm.counter("phase:load", "read_count"), 10u);
    EXPECT_FALSE(cm.has("phase:map"));
    // load() cut the torn tail off the file, so this line starts clean.
    cm.record("phase:map", {{"read_count", 11}});
  }
  {
    core::CheckpointManager cm(dir.path(), 1, 2);
    ASSERT_TRUE(cm.load());
    EXPECT_EQ(cm.counter("phase:map", "read_count"), 11u);
  }
  // A complete line that does not parse is not trusted.
  std::ofstream(manifest, std::ios::app) << "entry\n";
  EXPECT_FALSE(core::CheckpointManager(dir.path(), 1, 2).load());
  // Nor is a manifest cut inside its guard lines.
  core::CheckpointManager(dir.path(), 1, 2).reset();
  chop(5);
  EXPECT_FALSE(core::CheckpointManager(dir.path(), 1, 2).load());
}


/// Reads `pair`'s value as the decimal number its digits spell, or nothing
/// when it is not `name=digits` with a value below 2^64.
std::optional<std::uint64_t> decimal_value(const std::string& pair) {
  const std::size_t eq = pair.find('=');
  if (eq == std::string::npos || eq + 1 == pair.size()) return std::nullopt;
  unsigned __int128 value = 0;
  for (const char c : pair.substr(eq + 1)) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<unsigned>(c - '0');
    if (value > UINT64_MAX) return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

TEST(CheckpointManager, SeededManifestMutationsLoadOrReject) {
  io::ScopedTempDir dir("lasagna-ckpt-mutation");
  {
    core::CheckpointManager cm(dir.path(), 0x1111, 0x2222);
    cm.reset();
    cm.record("phase:load", {{"read_count", 60000}, {"total_bases", 6000000}});
    cm.record("sort:run:sfx_00080.sorted:0", {{"records", 7}});
    cm.record("sort:run:sfx_00080.sorted:1", {{"records", 1234567}});
    cm.record("phase:map", {{"partitions", 37}, {"records", 903}});
    cm.record("map:sfx:00063", {{"records", 12}});
    cm.record("shuffle:key:00000064", {{"hash", 99}});
  }
  const std::string text = slurp(dir.file("checkpoint.manifest"));
  const std::vector<std::string> numbered = {"map:sfx:", "shuffle:key:"};

  // load() returns true or false and never throws; every counter it keeps
  // is the decimal value of the digits on the last complete line of its key,
  // and every key under a numbered prefix ends in the number
  // numbered_keys() reports for it.
  // A fresh directory per mutant: truncating and rewriting one file can
  // wait for its earlier blocks to reach the disk.
  std::size_t dirs = 0;
  auto write_mutant = [&](const std::string& mutant) {
    const auto path = dir.path() / ("m" + std::to_string(dirs++));
    std::filesystem::create_directory(path);
    std::ofstream(path / "checkpoint.manifest", std::ios::binary) << mutant;
    return path;
  };
  auto expect_load_or_reject = [&](const std::string& mutant,
                                   const std::string& what) {
    core::CheckpointManager cm(write_mutant(mutant), 0x1111, 0x2222);
    bool loaded = false;
    ASSERT_NO_THROW(loaded = cm.load({numbered[0], numbered[1]})) << what;
    if (!loaded) return;
    std::map<std::string, core::CheckpointManager::Counters> lines;
    std::istringstream in(mutant.substr(0, mutant.rfind('\n') + 1));
    for (std::string line; std::getline(in, line);) {
      std::istringstream fields(line);
      std::string tag;
      std::string key;
      if (!(fields >> tag >> key) || tag != "entry") continue;
      auto& counters = lines[key];
      counters.clear();
      for (std::string pair; fields >> pair;) {
        const auto value = decimal_value(pair);
        ASSERT_TRUE(value.has_value()) << what << ": accepted " << pair;
        counters[pair.substr(0, pair.find('='))] = *value;
      }
    }
    for (const std::string& key : cm.keys_with_prefix("")) {
      EXPECT_EQ(cm.counters(key), lines[key]) << what << ": " << key;
    }
    for (const std::string& prefix : numbered) {
      std::map<std::uint64_t, std::string> expected;
      for (const auto& [key, counters] : lines) {
        if (key.rfind(prefix, 0) != 0) continue;
        const auto number = decimal_value("=" + key.substr(prefix.size()));
        ASSERT_TRUE(number.has_value()) << what << ": accepted " << key;
        expected.emplace(*number, key);
      }
      EXPECT_EQ(cm.numbered_keys(prefix), expected) << what;
    }
  };

  expect_load_or_reject(text, "unmodified");
  for (const char* value :
       {"abc", "-1", "99999999999999999999999", "18446744073709551616"}) {
    const auto path =
        write_mutant(text + "entry k records=" + value + "\n");
    EXPECT_FALSE(core::CheckpointManager(path, 0x1111, 0x2222).load())
        << value;
  }

  std::mt19937_64 rng(0xc4ec);
  auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  const std::string structure = " =\n";
  const std::vector<std::string> values = {
      "abc", "-1", "+1", "", "0x10", "1e3", "12a", "007", "0",
      "99999999999999999999999", "18446744073709551616",
      "18446744073709551615"};
  for (int trial = 0; trial < 256; ++trial) {
    std::string m = text;
    m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
    expect_load_or_reject(m, "bit flip " + std::to_string(trial));
    expect_load_or_reject(text.substr(0, pick(text.size())),
                          "truncate " + std::to_string(trial));
    m = text;
    for (std::size_t k = 1 + pick(4); k > 0; --k) {
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(pick(m.size() + 1)),
               structure[pick(structure.size())]);
    }
    expect_load_or_reject(m, "insert " + std::to_string(trial));
    m = text;
    for (std::size_t k = 1 + pick(4); k > 0; --k) {
      std::vector<std::size_t> hits;
      for (std::size_t i = 0; i < m.size(); ++i) {
        if (structure.find(m[i]) != std::string::npos) hits.push_back(i);
      }
      m.erase(hits[pick(hits.size())], 1);
    }
    expect_load_or_reject(m, "delete " + std::to_string(trial));
    // One counter's digits replaced.
    m = text;
    std::vector<std::size_t> eqs;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m[i] == '=') eqs.push_back(i);
    }
    const std::size_t at = eqs[pick(eqs.size())] + 1;
    m.replace(at, m.find_first_of(" \n", at) - at, values[pick(values.size())]);
    expect_load_or_reject(m, "value " + std::to_string(trial));
    // One numbered key's suffix replaced, or one of its characters.
    m = text;
    const std::string& prefix = numbered[pick(numbered.size())];
    const std::size_t begin = m.find("entry " + prefix) + 6 + prefix.size();
    const std::size_t end = m.find(' ', begin);
    if (pick(2) == 0) {
      m.replace(begin, end - begin, values[pick(values.size())]);
    } else {
      m[begin + pick(end - begin)] = "0123456789px-+ :"[pick(16)];
    }
    expect_load_or_reject(m, "suffix " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace lasagna
