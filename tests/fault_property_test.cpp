// Fault-injection properties: under any seeded policy the pipeline either
// completes with byte-identical output (transient/short faults absorbed by
// the retry layer) or dies with the typed io::FaultError — never with a
// silently wrong or partial result. Schedules are deterministic in the seed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/pipeline.hpp"
#include "io/fault_injector.hpp"
#include "io/file_stream.hpp"
#include "io/record_stream.hpp"
#include "io/tempdir.hpp"
#include "obs/metrics.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"

namespace lasagna {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class FaultPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string genome = seq::random_genome(3000, 5);
    seq::SequencingSpec spec;
    spec.read_length = 90;
    spec.coverage = 8.0;
    seq::simulate_to_fastq(genome, spec, dir_.file("reads.fq"));
  }

  core::AssemblyConfig config() const {
    core::AssemblyConfig c;
    c.min_overlap = 70;
    c.include_singletons = true;
    c.machine.host_memory_bytes = 64 << 10;  // force multi-run sorts
    c.machine.device_memory_bytes = 1 << 20;
    return c;
  }

  core::AssemblyResult run(const std::filesystem::path& output) {
    core::Assembler assembler(config());
    return assembler.run(dir_.file("reads.fq"), output);
  }

  io::ScopedTempDir dir_{"lasagna-faultprop"};
};

TEST_F(FaultPropertyTest, TransientFaultsAreAbsorbedWithIdenticalOutput) {
  (void)run(dir_.file("ref.fa"));
  const std::string reference = slurp(dir_.file("ref.fa"));

  auto& registry = obs::MetricsRegistry::global();
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const std::int64_t injected_before =
        registry.value("io.faults_injected");
    const std::int64_t retried_before = registry.value("io.faults_retried");
    auto injector = io::FaultInjector::parse(
        "seed=" + std::to_string(seed) +
        ";read:rate=0.02,transient=2;write:rate=0.02,transient=1");
    io::FaultInjector::ScopedInstall guard(injector.get());
    const auto result = run(dir_.file("t" + std::to_string(seed) + ".fa"));
    EXPECT_EQ(slurp(dir_.file("t" + std::to_string(seed) + ".fa")),
              reference)
        << "seed " << seed;
    EXPECT_GT(result.contigs.count, 0u);
    // Every injected transient was absorbed by at least one retry.
    EXPECT_GE(injector->retried(), injector->injected());
    EXPECT_EQ(injector->fatal(), 0u);
    // The injector's counters mirror into the global metrics registry.
    EXPECT_EQ(registry.value("io.faults_injected") - injected_before,
              static_cast<std::int64_t>(injector->injected()));
    EXPECT_EQ(registry.value("io.faults_retried") - retried_before,
              static_cast<std::int64_t>(injector->retried()));
  }
}

TEST_F(FaultPropertyTest, ShortWritesAreInvisibleToTheResult) {
  (void)run(dir_.file("ref.fa"));
  const std::string reference = slurp(dir_.file("ref.fa"));

  auto injector =
      io::FaultInjector::parse("seed=9;write:rate=0.2,short=7");
  io::FaultInjector::ScopedInstall guard(injector.get());
  (void)run(dir_.file("short.fa"));
  EXPECT_EQ(slurp(dir_.file("short.fa")), reference);
  EXPECT_GT(injector->injected(), 0u);
  EXPECT_EQ(injector->fatal(), 0u);
}

TEST_F(FaultPropertyTest, FatalSweepCompletesCorrectlyOrThrowsTyped) {
  (void)run(dir_.file("ref.fa"));
  const std::string reference = slurp(dir_.file("ref.fa"));

  for (std::uint64_t nth : {1, 3, 10, 40, 200, 100000}) {
    const auto output =
        dir_.file("fatal" + std::to_string(nth) + ".fa");
    auto injector = io::FaultInjector::parse(
        "write:nth=" + std::to_string(nth));
    io::FaultInjector::ScopedInstall guard(injector.get());
    try {
      (void)run(output);
      // The policy never fired (fewer than nth writes): full correct run.
      EXPECT_EQ(injector->fatal(), 0u);
      EXPECT_EQ(slurp(output), reference);
    } catch (const io::FaultError& e) {
      EXPECT_EQ(e.op(), io::FaultOp::kWrite);
      EXPECT_FALSE(e.transient());
      // A killed run must not leave a contig file (or a partial temp).
      EXPECT_FALSE(std::filesystem::exists(output)) << "nth=" << nth;
      EXPECT_FALSE(
          std::filesystem::exists(output.string() + ".tmp"))
          << "nth=" << nth;
    }
  }
}

TEST_F(FaultPropertyTest, RetryBudgetExhaustionEscalatesToFaultError) {
  core::AssemblyConfig c = config();
  auto injector =
      io::FaultInjector::parse("retries=2;read:nth=3,transient=5");
  io::FaultInjector::ScopedInstall guard(injector.get());
  core::Assembler assembler(c);
  try {
    (void)assembler.run(dir_.file("reads.fq"), dir_.file("exhaust.fa"));
    FAIL() << "expected FaultError";
  } catch (const io::FaultError& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_EQ(injector->fatal(), 1u);
  }
}

TEST_F(FaultPropertyTest, ScheduleIsDeterministicInTheSeed) {
  // Synchronous sort keeps the operation order single-threaded, so the same
  // seed must produce the exact same fault schedule (and counters) twice.
  const std::string spec = "seed=31;read:rate=0.05,transient=1;"
                           "write:rate=0.05,transient=1";
  std::uint64_t injected[2] = {0, 0};
  std::uint64_t retried[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    auto injector = io::FaultInjector::parse(spec);
    io::FaultInjector::ScopedInstall guard(injector.get());
    core::AssemblyConfig c = config();
    c.streamed_sort = false;
    core::Assembler assembler(c);
    (void)assembler.run(dir_.file("reads.fq"),
                        dir_.file("det" + std::to_string(round) + ".fa"));
    injected[round] = injector->injected();
    retried[round] = injector->retried();
  }
  EXPECT_GT(injected[0], 0u);
  EXPECT_EQ(injected[0], injected[1]);
  EXPECT_EQ(retried[0], retried[1]);
  EXPECT_EQ(slurp(dir_.file("det0.fa")), slurp(dir_.file("det1.fa")));
}

TEST_F(FaultPropertyTest, DisabledInjectorKeepsStreamsFaultFree) {
  // No injector installed: the hooks must be inert (and count no fault).
  if (io::FaultInjector::active() != nullptr) {
    GTEST_SKIP() << "ambient injector installed via LASAGNA_FAULT_SPEC";
  }
  auto& registry = obs::MetricsRegistry::global();
  const obs::MetricsRegistry::Snapshot before = registry.counters_snapshot();
  io::IoStats stats;
  {
    io::WriteOnlyStream out(dir_.file("plain.bin"), stats);
    const char payload[64] = {};
    out.write_bytes(std::as_bytes(std::span(payload)));
  }
  io::ReadOnlyStream in(dir_.file("plain.bin"), stats);
  std::byte buffer[64];
  EXPECT_EQ(in.read_bytes(std::span(buffer)), sizeof(buffer));
  const obs::MetricsRegistry::Snapshot delta =
      obs::snapshot_delta(before, registry.counters_snapshot());
  for (const auto& [name, value] : delta) {
    EXPECT_NE(name.rfind("io.faults_", 0), 0u) << name << " moved by " << value;
  }
}

TEST(FaultSpecParser, AcceptsTheDocumentedGrammar) {
  auto injector = io::FaultInjector::parse(
      "seed=7;retries=3;write:nth=3,match=sfx_;"
      "read:rate=0.001,transient=2;alloc:nth=1;write:rate=0.5,short=16");
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->seed(), 7u);
  EXPECT_EQ(injector->max_retries(), 3u);
}

TEST(FaultSpecParser, RejectsMalformedSpecs) {
  EXPECT_THROW((void)io::FaultInjector::parse("bogus:nth=1"),
               std::invalid_argument);
  EXPECT_THROW((void)io::FaultInjector::parse("read:"),
               std::invalid_argument);
  EXPECT_THROW((void)io::FaultInjector::parse("read:nonsense=2"),
               std::invalid_argument);
  EXPECT_THROW((void)io::FaultInjector::parse("read:match=x"),
               std::invalid_argument);  // no nth/rate trigger
  EXPECT_THROW((void)io::FaultInjector::parse("seed="),
               std::invalid_argument);
}

TEST(FaultInjector, AllocPoliciesHitTheDeviceAllocator) {
  io::FaultInjector injector(1);
  io::FaultPolicy policy;
  policy.op = io::FaultOp::kAlloc;
  policy.nth = 2;
  injector.add_policy(policy);
  io::FaultInjector::ScopedInstall guard(&injector);

  gpu::Device dev(gpu::GpuProfile::k40(), 1 << 20);
  const auto first = dev.alloc<std::uint32_t>(16);  // 1st alloc: clean
  (void)first;
  EXPECT_THROW((void)dev.alloc<std::uint32_t>(16), io::FaultError);
  EXPECT_EQ(injector.fatal(), 1u);
}

}  // namespace
}  // namespace lasagna
