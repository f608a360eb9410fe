// Property tests for the active-message layer under fault injection: a
// seeded schedule of requests produces the same deliveries — same content,
// same per-sender order — no matter which am: policies are installed,
// because injected drops and delays only move the modeled clocks. At the
// pipeline level the same holds for the shuffle: repeated distributed runs
// under a seeded AM fault schedule produce identical partition bytes
// (shuffle_hash) and identical contigs.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "dist/active_message.hpp"
#include "dist/cluster.hpp"
#include "io/fault_injector.hpp"
#include "io/tempdir.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"

namespace lasagna::dist {
namespace {

constexpr unsigned kNodes = 4;
constexpr std::uint16_t kEcho = 0;
constexpr std::uint16_t kAccumulate = 1;

/// Register two handler types at every node: an echo and a summing
/// accumulator whose final value fingerprints the delivered content.
void register_handlers(Network& net, std::vector<std::uint64_t>& sums) {
  for (unsigned n = 0; n < kNodes; ++n) {
    net.register_handler(n, kEcho,
                         [](unsigned, std::span<const std::byte> in) {
                           return Payload(in.begin(), in.end());
                         });
    net.register_handler(
        n, kAccumulate,
        [&sum = sums[n]](unsigned src, std::span<const std::byte> in) {
          sum = sum * 31 + src * 7 + in.size();
          return Payload{};
        });
  }
}

/// Drive one seeded single-threaded schedule; returns the per-node
/// delivery logs plus accumulator fingerprints.
struct ScheduleResult {
  std::vector<std::vector<Network::Delivery>> deliveries;
  std::vector<std::uint64_t> sums;
  double modeled_total = 0.0;
};

ScheduleResult run_schedule(std::uint32_t seed,
                            const std::string& fault_spec) {
  std::unique_ptr<io::FaultInjector> injector;
  std::optional<io::FaultInjector::ScopedInstall> guard;
  if (!fault_spec.empty()) {
    injector = io::FaultInjector::parse(fault_spec);
    guard.emplace(injector.get());
  }

  Network net(kNodes, ClusterTopology::flat(1e6, 1e-4));
  ScheduleResult result;
  result.sums.assign(kNodes, 0);
  register_handlers(net, result.sums);
  net.record_deliveries(true);

  std::mt19937 rng(seed);
  for (int i = 0; i < 400; ++i) {
    const unsigned src = rng() % kNodes;
    const unsigned dst = rng() % kNodes;
    const std::uint16_t type = rng() % 2 == 0 ? kEcho : kAccumulate;
    const Payload payload((rng() % 300) + 1,
                          static_cast<std::byte>(rng() % 256));
    const Payload reply = net.request(src, dst, type, payload);
    if (type == kEcho) {
      EXPECT_EQ(reply.size(), payload.size());
    }
  }

  for (unsigned n = 0; n < kNodes; ++n) {
    result.deliveries.push_back(net.deliveries(n));
    result.modeled_total += net.modeled_seconds(n);
  }
  return result;
}

void expect_same_deliveries(const ScheduleResult& a,
                            const ScheduleResult& b) {
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (unsigned n = 0; n < a.deliveries.size(); ++n) {
    ASSERT_EQ(a.deliveries[n].size(), b.deliveries[n].size()) << n;
    for (std::size_t i = 0; i < a.deliveries[n].size(); ++i) {
      EXPECT_EQ(a.deliveries[n][i].src, b.deliveries[n][i].src);
      EXPECT_EQ(a.deliveries[n][i].type, b.deliveries[n][i].type);
      EXPECT_EQ(a.deliveries[n][i].bytes, b.deliveries[n][i].bytes);
    }
  }
  EXPECT_EQ(a.sums, b.sums);
}

TEST(AmProperty, SeededScheduleIsRepeatable) {
  for (const std::uint32_t seed : {1u, 7u, 99u}) {
    expect_same_deliveries(run_schedule(seed, ""), run_schedule(seed, ""));
  }
}

TEST(AmProperty, DropAndDelayFaultsNeverChangeDeliveries) {
  // Injected drops retransmit and injected delays stall — but content and
  // per-(node, handler) order are bit-identical to the fault-free run.
  for (const std::uint32_t seed : {3u, 42u}) {
    const ScheduleResult clean = run_schedule(seed, "");
    const ScheduleResult drops =
        run_schedule(seed, "seed=5;am:rate=0.3,transient=1");
    const ScheduleResult delays =
        run_schedule(seed, "seed=6;am:rate=0.5,delay=0.002");
    const ScheduleResult both = run_schedule(
        seed, "seed=7;am:rate=0.2,transient=1;am:rate=0.2,delay=0.001");
    expect_same_deliveries(clean, drops);
    expect_same_deliveries(clean, delays);
    expect_same_deliveries(clean, both);
    // Faults are not free: the modeled clocks must move.
    EXPECT_GT(drops.modeled_total, clean.modeled_total);
    EXPECT_GT(delays.modeled_total, clean.modeled_total);
  }
}

TEST(AmProperty, FaultScheduleItselfIsSeeded) {
  // Same injector seed -> same modeled cost; different seed -> the rate
  // coins land elsewhere (content is identical either way).
  const ScheduleResult a = run_schedule(11, "seed=9;am:rate=0.25,delay=0.001");
  const ScheduleResult b = run_schedule(11, "seed=9;am:rate=0.25,delay=0.001");
  expect_same_deliveries(a, b);
  EXPECT_DOUBLE_EQ(a.modeled_total, b.modeled_total);
}

TEST(AmProperty, PerSenderOrderSurvivesConcurrency) {
  // With concurrent senders the interleaving at a destination is
  // scheduler-dependent, but each sender's subsequence must arrive in its
  // program order (per-node mutex = one AM polling thread). Encode the
  // sender's sequence number in the payload size.
  Network net(kNodes, ClusterTopology::flat(1e9, 1e-6));
  std::vector<std::uint64_t> sums(kNodes, 0);
  register_handlers(net, sums);
  net.record_deliveries(true);

  constexpr std::size_t kPerSender = 200;
  std::vector<std::thread> senders;
  for (unsigned src = 0; src < kNodes; ++src) {
    senders.emplace_back([&net, src] {
      std::mt19937 rng(1000 + src);
      for (std::size_t i = 0; i < kPerSender; ++i) {
        const unsigned dst = rng() % kNodes;
        (void)net.request(src, dst, kAccumulate, Payload(i + 1));
      }
    });
  }
  for (auto& t : senders) t.join();

  for (unsigned src = 0; src < kNodes; ++src) {
    std::mt19937 rng(1000 + src);
    std::vector<std::vector<std::uint64_t>> expected(kNodes);
    for (std::size_t i = 0; i < kPerSender; ++i) {
      expected[rng() % kNodes].push_back(i + 1);
    }
    for (unsigned dst = 0; dst < kNodes; ++dst) {
      std::vector<std::uint64_t> seen;
      for (const auto& delivery : net.deliveries(dst)) {
        if (delivery.src == src) seen.push_back(delivery.bytes);
      }
      EXPECT_EQ(seen, expected[dst]) << "src=" << src << " dst=" << dst;
    }
  }
}

TEST(AmProperty, ShuffleBytesAreIdenticalAcrossRunsUnderAmFaults) {
  // Pipeline-level determinism: two distributed runs under the same seeded
  // AM fault schedule — and a third without faults — must produce the same
  // merged partition bytes (shuffle_hash) and the same contigs, even
  // though dynamic block assignment makes the message interleaving differ.
  io::ScopedTempDir dir("lasagna-am-prop");
  const std::string genome = seq::random_genome(4000, 81);
  seq::SequencingSpec spec;
  spec.read_length = 85;
  spec.coverage = 10.0;
  spec.seed = 82;
  seq::simulate_to_fastq(genome, spec, dir.file("reads.fq"));

  ClusterConfig config = ClusterConfig::supermic(3, 4096.0);
  config.min_overlap = 55;
  config.machine.host_memory_bytes = 1 << 19;
  config.machine.device_memory_bytes = 1 << 16;

  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };

  const auto run_faulted = [&](const std::string& tag) {
    auto injector = io::FaultInjector::parse(
        "seed=17;am:rate=0.02,transient=1;am:rate=0.02,delay=0.0005");
    io::FaultInjector::ScopedInstall guard(injector.get());
    return run_distributed(dir.file("reads.fq"), dir.file(tag + ".fa"),
                           config);
  };

  // Defaults exercise fusion under faults; the staged pipeline must land
  // on the same bytes.
  const DistributedResult a = run_faulted("a");
  const DistributedResult b = run_faulted("b");
  const DistributedResult clean = run_distributed(
      dir.file("reads.fq"), dir.file("clean.fa"), config);
  config.fuse_shuffle = false;
  const DistributedResult staged = run_faulted("staged");

  EXPECT_NE(a.shuffle_hash, 0u);
  EXPECT_EQ(a.shuffle_hash, b.shuffle_hash);
  EXPECT_EQ(a.shuffle_hash, clean.shuffle_hash);
  EXPECT_EQ(a.shuffle_hash, staged.shuffle_hash);
  EXPECT_EQ(a.shuffle_bytes, staged.shuffle_bytes);
  EXPECT_EQ(a.candidate_edges, clean.candidate_edges);
  EXPECT_EQ(a.accepted_edges, clean.accepted_edges);
  EXPECT_EQ(slurp(dir.file("a.fa")), slurp(dir.file("clean.fa")));
  EXPECT_EQ(slurp(dir.file("b.fa")), slurp(dir.file("clean.fa")));
  EXPECT_EQ(slurp(dir.file("staged.fa")), slurp(dir.file("clean.fa")));
}

}  // namespace
}  // namespace lasagna::dist
