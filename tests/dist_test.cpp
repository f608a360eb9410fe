#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/pipeline.hpp"
#include "dist/active_message.hpp"
#include "dist/cluster.hpp"
#include "io/fastq.hpp"
#include "io/fault_injector.hpp"
#include "io/tempdir.hpp"
#include "obs/trace.hpp"
#include "seq/dna.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"

namespace lasagna::dist {
namespace {

TEST(ActiveMessage, RequestReplyRoundTrip) {
  Network net(3, ClusterTopology::flat(1e9, 1e-6));
  net.register_handler(1, 7, [](unsigned src, std::span<const std::byte> in) {
    Payload reply;
    std::size_t off = 0;
    const auto x = get<std::uint64_t>(in, off);
    put(reply, x * 2 + src);
    return reply;
  });
  Payload msg;
  put(msg, std::uint64_t{21});
  const Payload reply = net.request(0, 1, 7, msg);
  std::size_t off = 0;
  EXPECT_EQ(get<std::uint64_t>(reply, off), 42u);
}

TEST(ActiveMessage, ChargesBothEndpoints) {
  Network net(2, ClusterTopology::flat(1e6, 1e-3));
  net.register_handler(1, 0, [](unsigned, std::span<const std::byte>) {
    return Payload(1000);
  });
  net.request(0, 1, 0, Payload(500));
  EXPECT_EQ(net.bytes_sent(0), 500u);   // request payload
  EXPECT_EQ(net.bytes_sent(1), 1000u);  // reply payload
  // Full duplex: each endpoint's clock is max(send, recv). Node 0 sends
  // the request (1ms + 0.5ms) and receives the reply (1ms + 1ms); node 1
  // mirrors it. Both end at the 2ms reply leg.
  EXPECT_NEAR(net.send_seconds(0), 0.0015, 1e-4);
  EXPECT_NEAR(net.recv_seconds(0), 0.0020, 1e-4);
  EXPECT_NEAR(net.modeled_seconds(0), 0.0020, 1e-4);
  EXPECT_NEAR(net.modeled_seconds(1), 0.0020, 1e-4);
  net.reset_counters();
  EXPECT_EQ(net.bytes_sent(0), 0u);
  EXPECT_DOUBLE_EQ(net.modeled_seconds(0), 0.0);
}

TEST(ActiveMessage, LocalDeliveryIsFree) {
  Network net(2, ClusterTopology::flat(1e6, 1e-3));
  net.register_handler(0, 0, [](unsigned, std::span<const std::byte>) {
    return Payload(100);
  });
  net.request(0, 0, 0, Payload(100));
  EXPECT_EQ(net.bytes_sent(0), 0u);
  EXPECT_DOUBLE_EQ(net.modeled_seconds(0), 0.0);
}

TEST(ActiveMessage, MissingHandlerThrows) {
  Network net(2, ClusterTopology::flat(1e6, 1e-3));
  EXPECT_THROW(net.request(0, 1, 3, {}), std::logic_error);
}

TEST(ActiveMessage, PayloadUnderflowThrows) {
  Payload p;
  put(p, std::uint32_t{5});
  std::size_t off = 0;
  EXPECT_EQ(get<std::uint32_t>(p, off), 5u);
  EXPECT_THROW(get<std::uint32_t>(p, off), std::out_of_range);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct Dataset {
  io::ScopedTempDir dir{"lasagna-dist"};
  std::string genome;
};

Dataset make_dataset(std::uint64_t genome_len = 6000, double coverage = 18.0,
                     unsigned read_len = 90) {
  Dataset d;
  d.genome = seq::random_genome(genome_len, 31);
  seq::SequencingSpec spec;
  spec.read_length = read_len;
  spec.coverage = coverage;
  spec.seed = 32;
  seq::simulate_to_fastq(d.genome, spec, d.dir.file("reads.fq"));
  return d;
}

ClusterConfig small_cluster(unsigned nodes) {
  ClusterConfig config = ClusterConfig::supermic(nodes, 4096.0);
  config.min_overlap = 55;
  config.machine.host_memory_bytes = 1 << 19;
  config.machine.device_memory_bytes = 1 << 16;
  return config;
}

TEST(Cluster, MatchesSingleNodeAssembly) {
  const Dataset d = make_dataset();

  // Single-node reference.
  core::AssemblyConfig single;
  single.min_overlap = 55;
  single.machine.host_memory_bytes = 1 << 19;
  single.machine.device_memory_bytes = 1 << 16;
  core::Assembler assembler(single);
  const auto reference =
      assembler.run(d.dir.file("reads.fq"), d.dir.file("single.fa"));
  const std::string reference_fa = slurp(d.dir.file("single.fa"));

  for (const unsigned nodes : {1u, 3u}) {
    const std::filesystem::path out =
        d.dir.file("dist" + std::to_string(nodes) + ".fa");
    const DistributedResult dist =
        run_distributed(d.dir.file("reads.fq"), out, small_cluster(nodes));
    EXPECT_EQ(dist.read_count, reference.read_count);
    EXPECT_EQ(dist.candidate_edges, reference.candidate_edges)
        << nodes << " nodes";
    // Stage files merge in global block order and the stable sorts keep
    // equal-fingerprint runs in that order, so the greedy graph — and the
    // contig file bytes — are identical at any node count.
    EXPECT_EQ(dist.accepted_edges, reference.accepted_edges)
        << nodes << " nodes";
    EXPECT_EQ(dist.contigs.total_bases, reference.contigs.total_bases);
    EXPECT_EQ(dist.contigs.n50, reference.contigs.n50);
    EXPECT_EQ(slurp(out), reference_fa) << nodes << " nodes";
  }
}

TEST(Cluster, EachBlockParsesOnlyItsOwnInput) {
  // A map block opens the input at the batch that holds its first read and
  // stops after its last read, so 4 nodes parse the input about once, like
  // one node: each of the 8 blocks re-parses at most the batch it shares
  // with the block before it (the bound allows one more per block).
  const Dataset d = make_dataset();
  const auto decode_spans = [&](unsigned nodes) {
    obs::Tracer tracer;
    const obs::Tracer::ScopedInstall install(&tracer);
    (void)run_distributed(d.dir.file("reads.fq"),
                          d.dir.file("decode" + std::to_string(nodes) + ".fa"),
                          small_cluster(nodes));
    std::size_t spans = 0;
    for (const obs::TraceEvent& e : tracer.events()) {
      spans += tracer.track_name(e.track) == "io.fastq" && e.name == "decode";
    }
    return spans;
  };
  const std::size_t one = decode_spans(1);
  const std::size_t four = decode_spans(4);
  // The input spans many batches, so re-parsing it per block would show.
  ASSERT_GT(one, 40u);
  EXPECT_LE(four, one + 2 * 8);
}

TEST(Cluster, ContigsAreGenomeSubstrings) {
  const Dataset d = make_dataset(4000, 20.0, 80);
  ClusterConfig config = small_cluster(4);
  config.min_overlap = 50;
  const DistributedResult result = run_distributed(
      d.dir.file("reads.fq"), d.dir.file("contigs.fa"), config);
  const auto contigs = io::read_sequence_file(d.dir.file("contigs.fa"));
  ASSERT_GT(contigs.size(), 0u);
  for (const auto& c : contigs) {
    EXPECT_TRUE(d.genome.find(c.bases) != std::string::npos ||
                d.genome.find(seq::reverse_complement(c.bases)) !=
                    std::string::npos);
  }
}

TEST(Cluster, PhasesRecorded) {
  const Dataset d = make_dataset(3000, 12.0, 80);
  ClusterConfig config = small_cluster(2);
  config.min_overlap = 50;
  const DistributedResult result = run_distributed(
      d.dir.file("reads.fq"), d.dir.file("contigs.fa"), config);
  for (const char* phase :
       {"map", "shuffle", "sort", "reduce", "compress"}) {
    EXPECT_TRUE(result.stats.has_phase(phase)) << phase;
    // Fusion can collapse shuffle and sort to (nearly) nothing — arriving
    // chunks become sorted runs during the map, and a small partition's
    // "merge" is a rename. The phases that do irreducible work stay
    // positive.
    if (std::string(phase) == "shuffle" || std::string(phase) == "sort") {
      EXPECT_GE(result.stats.phase(phase).modeled_seconds, 0.0) << phase;
    } else {
      EXPECT_GT(result.stats.phase(phase).modeled_seconds, 0.0) << phase;
    }
  }
  ASSERT_EQ(result.per_node.size(), 5u);
  EXPECT_EQ(result.per_node[0].size(), 2u);
}

TEST(Cluster, ShuffleMovesBytesOnlyWithMultipleNodes) {
  const Dataset d = make_dataset(3000, 12.0, 80);
  const auto one = run_distributed(d.dir.file("reads.fq"),
                                   d.dir.file("c1.fa"), small_cluster(1));
  const auto four = run_distributed(d.dir.file("reads.fq"),
                                    d.dir.file("c4.fa"), small_cluster(4));
  // Logical partition bytes are a property of the input, not the cluster.
  EXPECT_GT(one.shuffle_bytes, 0u);
  EXPECT_EQ(one.shuffle_bytes, four.shuffle_bytes);
  // Wire traffic is what needs multiple nodes: self-pushes are free.
  EXPECT_EQ(one.wire_bytes, 0u);
  EXPECT_GT(four.wire_bytes, 0u);
  // The codec earns its keep on the remote chunks.
  EXPECT_EQ(one.compression_ratio, 1.0);
  EXPECT_GT(four.compression_ratio, 1.0);
}

TEST(Cluster, ModeledSortTimeScalesDown) {
  // The paper's core distributed claim: more nodes -> more aggregate I/O
  // bandwidth -> faster map and sort phases. Run the staged (unfused)
  // pipeline so the sort phase actually carries the sort work — fusion
  // moves it into the map, which the conformance suite covers.
  const Dataset d = make_dataset(8000, 20.0, 90);
  ClusterConfig c1 = small_cluster(1);
  ClusterConfig c4 = small_cluster(4);
  c1.fuse_shuffle = false;
  c4.fuse_shuffle = false;
  const auto n1 =
      run_distributed(d.dir.file("reads.fq"), d.dir.file("s1.fa"), c1);
  const auto n4 =
      run_distributed(d.dir.file("reads.fq"), d.dir.file("s4.fa"), c4);
  EXPECT_LT(n4.stats.phase("sort").modeled_seconds,
            n1.stats.phase("sort").modeled_seconds);
  EXPECT_LT(n4.stats.phase("map").modeled_seconds,
            n1.stats.phase("map").modeled_seconds);
  // Total time improves despite the added shuffle.
  EXPECT_LT(n4.stats.total_modeled_seconds(),
            n1.stats.total_modeled_seconds());
}

TEST(Cluster, CostsComeFromTheMachine) {
  // The network and the reduce's per-candidate graph costs derive from the
  // machine's time scale, so a default-constructed config prices a run
  // exactly like the SuperMIC preset on the same machine. Synchronous runs
  // make every phase's modeled time a pure function of the input; injected
  // faults move it by design, so an ambient injector is set aside.
  const io::FaultInjector::ScopedInstall no_faults(nullptr);
  const Dataset d = make_dataset(3000, 12.0, 80);
  ClusterConfig preset = small_cluster(4);
  preset.streamed = false;
  ClusterConfig plain;
  plain.node_count = 4;
  plain.machine = preset.machine;
  plain.min_overlap = preset.min_overlap;
  plain.streamed = false;
  const auto a =
      run_distributed(d.dir.file("reads.fq"), d.dir.file("a.fa"), preset);
  const auto b =
      run_distributed(d.dir.file("reads.fq"), d.dir.file("b.fa"), plain);
  ASSERT_GT(a.candidate_edges, 0u);
  for (const char* phase : {"map", "shuffle", "sort", "reduce", "compress"}) {
    EXPECT_EQ(a.stats.phase(phase).modeled_seconds,
              b.stats.phase(phase).modeled_seconds)
        << phase;
  }
}

}  // namespace
}  // namespace lasagna::dist
