// Node-failure recovery for the distributed pipeline: kill node k with an
// injected "node:" fault mid-map, mid-sort and mid-reduce, resume from the
// per-node checkpoint manifests, and require (a) contigs byte-identical to
// an uninterrupted run, (b) identical result counters, (c) strictly less
// disk traffic than a cold rerun — the surviving nodes' completed prefix
// is not redone. It also pins the resume guards: a finished run resumes
// into identical contigs in every reduce mode (a greedy one under either
// strategy), a checkpoint made with different fingerprint parameters or
// holding a key that does not parse restores nothing, and a cut, extended
// or bit-flipped sidecar is recomputed.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "dist/cluster.hpp"
#include "io/fault_injector.hpp"
#include "io/tempdir.hpp"
#include "obs/metrics.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"
#include "sidecar_damage.hpp"

namespace lasagna::dist {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The lexicographically first sidecar holding at least one record under
/// any node of `work_dir` whose name starts with `prefix`, or an empty path.
std::filesystem::path first_sidecar(const std::filesystem::path& work_dir,
                                    const std::string& prefix) {
  std::set<std::filesystem::path> found;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(work_dir)) {
    if (entry.is_regular_file() &&
        entry.file_size() > core::CheckpointManager::kSidecarHeaderBytes &&
        entry.path().filename().string().rfind(prefix, 0) == 0) {
      found.insert(entry.path());
    }
  }
  return found.empty() ? std::filesystem::path() : *found.begin();
}

/// The sidecars of one node directory whose names start with `prefix`.
std::size_t count_sidecars(const std::filesystem::path& node_dir,
                           const std::string& prefix) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(node_dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

/// Rewrite `manifest` with the first character after `entry` set to `c`.
void corrupt_key(const std::filesystem::path& manifest,
                 const std::string& entry, char c) {
  std::string text = slurp(manifest);
  const std::size_t at = text.find(entry);
  ASSERT_NE(at, std::string::npos) << manifest;
  text[at + entry.size()] = c;
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << text;
}

struct Mode {
  const char* name;
  ReduceStrategy strategy;
  core::GraphMode graph;
};
constexpr Mode kModes[] = {
    {"token", ReduceStrategy::kLengthToken, core::GraphMode::kGreedy},
    {"speculative", ReduceStrategy::kSpeculative, core::GraphMode::kGreedy},
    {"reduced", ReduceStrategy::kLengthToken, core::GraphMode::kReduced},
};

class DistRecoveryTest : public ::testing::Test {
 protected:
  static constexpr unsigned kNodes = 2;

  void SetUp() override {
    const std::string genome = seq::random_genome(5000, 91);
    seq::SequencingSpec spec;
    spec.read_length = 90;
    spec.coverage = 12.0;
    spec.seed = 92;
    seq::simulate_to_fastq(genome, spec, dir_.file("reads.fq"));
  }

  ClusterConfig config(const std::string& scenario) const {
    ClusterConfig c = ClusterConfig::supermic(kNodes, 4096.0);
    c.min_overlap = 55;
    c.machine.host_memory_bytes = 1 << 19;
    c.machine.device_memory_bytes = 1 << 16;
    c.reduce_strategy = strategy_;
    c.graph = graph_;
    c.work_dir = dir_.path() / ("work-" + scenario);
    return c;
  }

  std::filesystem::path out(const std::string& scenario) const {
    return dir_.file("out-" + scenario + ".fa");
  }

  DistributedResult run_full(const std::string& scenario) {
    return run_distributed(dir_.file("reads.fq"), out(scenario),
                           config(scenario));
  }

  /// Kill the cluster with `spec` installed, then resume without faults.
  DistributedResult crash_and_resume(const std::string& scenario,
                                     const std::string& spec) {
    {
      auto injector = io::FaultInjector::parse(spec);
      io::FaultInjector::ScopedInstall guard(injector.get());
      EXPECT_THROW((void)run_distributed(dir_.file("reads.fq"),
                                         out(scenario), config(scenario)),
                   io::FaultError);
      EXPECT_GE(injector->fatal(), 1u);
    }
    ClusterConfig resumed = config(scenario);
    resumed.resume = true;
    return run_distributed(dir_.file("reads.fq"), out(scenario), resumed);
  }

  void check_scenario(const std::string& scenario, const std::string& spec,
                      unsigned min_phases_resumed) {
    const DistributedResult full = run_full("ref-" + scenario);
    const std::string reference = slurp(out("ref-" + scenario));

    const DistributedResult resumed = crash_and_resume(scenario, spec);
    EXPECT_EQ(slurp(out(scenario)), reference) << scenario;
    EXPECT_EQ(resumed.read_count, full.read_count);
    EXPECT_EQ(resumed.candidate_edges, full.candidate_edges);
    EXPECT_EQ(resumed.accepted_edges, full.accepted_edges);
    EXPECT_EQ(resumed.shuffle_hash, full.shuffle_hash);
    EXPECT_EQ(resumed.contigs.count, full.contigs.count);
    EXPECT_EQ(resumed.contigs.total_bases, full.contigs.total_bases);
    EXPECT_EQ(resumed.contigs.n50, full.contigs.n50);
    EXPECT_GE(resumed.phases_resumed, min_phases_resumed) << scenario;
    // The recovery contract: strictly less disk work than the cold run.
    EXPECT_LT(resumed.stats.total_disk_bytes(),
              full.stats.total_disk_bytes())
        << scenario;
  }

  io::ScopedTempDir dir_{"lasagna-dist-recovery"};
  ReduceStrategy strategy_ = ReduceStrategy::kLengthToken;
  core::GraphMode graph_ = core::GraphMode::kGreedy;
};

TEST_F(DistRecoveryTest, NodeKilledMidMapResumesFinishedBlocks) {
  // Node 1 dies on its first map block; node 0 still maps its own
  // round-robin blocks (0 and 2), so on resume only node 1's blocks (1 and
  // 3) are mapped — and pushed idempotently to their owners.
  check_scenario("map", "node:nth=1,node=1,match=map:block", 0);
}

TEST_F(DistRecoveryTest, NodeKilledMidSortResumesMapAndShuffle) {
  // The kill fires on the second partition sort anywhere in the cluster;
  // map blocks and merged shuffle partitions all resume from manifests.
  check_scenario("sort", "node:nth=2,match=sort:", 2);
}

TEST_F(DistRecoveryTest, NodeKilledMidReduceResumesFromTokenSidecars) {
  // The kill fires mid-scan under the token reduce. Every partition an
  // owner finished restores from its candidate sidecar, and the token ring
  // walks the restored and rescanned candidates alike; map, shuffle and
  // sort all resume whole.
  check_scenario("reduce", "node:nth=3,match=reduce:", 3);
}

TEST_F(DistRecoveryTest, SpeculativeKilledMidScanResumesFromCandidateSidecars) {
  // The kill fires on the second candidate-scan sidecar write. On resume
  // the finished partitions' candidates restore from their sidecars (no
  // re-scan) and reconciliation replays over the full candidate set.
  strategy_ = ReduceStrategy::kSpeculative;
  check_scenario("spec-scan", "node:nth=2,match=reduce:cand", 3);
}

TEST_F(DistRecoveryTest, SpeculativeKilledMidReconciliationReplaysToFixpoint) {
  // The kill fires on the master's second reconciliation round — after at
  // least one commit delta has been persisted to the committed log. The
  // resume pre-commits that log (a sound prefix of the sequential-greedy
  // edge set), restores every candidate sidecar, and replays the
  // speculate/reconcile rounds to the same fixpoint. Rounds and conflict
  // counts may differ between the fresh and resumed runs (the replay
  // starts from a later prefix); the contract is byte-identical contigs
  // and identical edge counts, which check_scenario asserts.
  strategy_ = ReduceStrategy::kSpeculative;
  check_scenario("spec-reconcile", "node:nth=2,match=reduce:spec:round", 3);
}

TEST_F(DistRecoveryTest, ReducedGraphKilledMidScanResumesFromSidecars) {
  // Reduced graph mode: the kill fires on the second partition of the
  // distributed reduction's candidate scan. On resume
  // the finished partitions' candidate sets restore from their sidecars
  // (no re-scan); the deterministic routing, blocked reduction and stitch
  // superstep replay over the restored multiset, so contigs, edge counts
  // and the full-graph/reduction counters all match the uninterrupted run.
  graph_ = core::GraphMode::kReduced;
  const DistributedResult full = run_full("ref-reduced-scan");
  const DistributedResult resumed = crash_and_resume(
      "reduced-scan", "node:nth=2,match=reduce:cand");
  EXPECT_EQ(slurp(out("reduced-scan")), slurp(out("ref-reduced-scan")));
  EXPECT_EQ(resumed.candidate_edges, full.candidate_edges);
  EXPECT_EQ(resumed.accepted_edges, full.accepted_edges);
  EXPECT_EQ(resumed.full_edges, full.full_edges);
  EXPECT_EQ(resumed.transitive_removed, full.transitive_removed);
  EXPECT_GE(resumed.phases_resumed, 3u);
  EXPECT_LT(resumed.stats.total_disk_bytes(), full.stats.total_disk_bytes());
}

TEST_F(DistRecoveryTest, ResumeAfterSuccessfulRunSkipsEverythingButCompress) {
  for (const Mode& mode : kModes) {
    strategy_ = mode.strategy;
    graph_ = mode.graph;
    const std::string scenario = std::string("noop-") + mode.name;
    (void)run_full(scenario);
    const std::string reference = slurp(out(scenario));
    ClusterConfig c = config(scenario);
    c.resume = true;
    const DistributedResult resumed =
        run_distributed(dir_.file("reads.fq"), out(scenario), c);
    // map, shuffle, sort and reduce all restore; compress always re-runs
    // — over exactly the uninterrupted run's edge set.
    EXPECT_EQ(slurp(out(scenario)), reference) << mode.name;
    EXPECT_EQ(resumed.phases_resumed, 4u) << mode.name;
    for (const auto& phase : resumed.stats.phases()) {
      if (phase.name != "compress") {
        EXPECT_TRUE(phase.resumed) << mode.name << " " << phase.name;
      }
    }
  }
}

TEST_F(DistRecoveryTest, TokenKillOnOneNodeRescansOnlyItsPartitions) {
  // Node 1 dies on its first reduce partition while node 0 scans all of
  // its own. Owners checkpoint their candidates as they scan, so the
  // resume rescans exactly node 1's partitions.
  (void)run_full("ref-node-kill");
  {
    auto injector =
        io::FaultInjector::parse("node:nth=1,node=1,match=reduce:cand");
    io::FaultInjector::ScopedInstall guard(injector.get());
    EXPECT_THROW((void)run_distributed(dir_.file("reads.fq"),
                                       out("node-kill"), config("node-kill")),
                 io::FaultError);
  }
  auto& registry = obs::MetricsRegistry::global();
  const std::int64_t scanned_before = registry.value("dist.reduce.partitions");
  ClusterConfig c = config("node-kill");
  c.resume = true;
  (void)run_distributed(dir_.file("reads.fq"), out("node-kill"), c);
  const std::size_t node1_partitions =
      count_sidecars(c.work_dir / "node1", "checkpoint.reduce.cand.l");
  EXPECT_GT(node1_partitions, 0u);
  EXPECT_EQ(registry.value("dist.reduce.partitions") - scanned_before,
            static_cast<std::int64_t>(node1_partitions));
  EXPECT_EQ(slurp(out("node-kill")), slurp(out("ref-node-kill")));
}

TEST_F(DistRecoveryTest, GreedyWorkDirResumesUnderTheOtherStrategy) {
  // Both greedy strategies checkpoint the same candidate sidecars, so a
  // finished work dir of either restores every phase but compress under
  // the other and writes the same contigs.
  for (const Mode& from : {kModes[0], kModes[1]}) {
    strategy_ = from.strategy;
    const std::string scenario = std::string("swap-") + from.name;
    (void)run_full(scenario);
    ClusterConfig c = config(scenario);
    c.reduce_strategy = from.strategy == ReduceStrategy::kLengthToken
                            ? ReduceStrategy::kSpeculative
                            : ReduceStrategy::kLengthToken;
    c.resume = true;
    const DistributedResult resumed = run_distributed(
        dir_.file("reads.fq"), out(scenario + "-resumed"), c);
    EXPECT_EQ(resumed.phases_resumed, 4u) << from.name;
    EXPECT_TRUE(resumed.stats.phase("reduce").resumed) << from.name;
    EXPECT_EQ(slurp(out(scenario + "-resumed")), slurp(out(scenario)))
        << from.name;
  }
}

TEST_F(DistRecoveryTest, ResumeWithChangedFingerprintsRestoresNothing) {
  // The fingerprint parameters decide every partition's content, so a
  // checkpoint made under the standard hash must not seed a run with
  // different ones.
  strategy_ = ReduceStrategy::kSpeculative;
  (void)run_full("fp");
  ClusterConfig weak = config("fp");
  weak.fingerprints = fingerprint::FingerprintConfig::weak(13, 17);
  weak.resume = true;
  const DistributedResult resumed =
      run_distributed(dir_.file("reads.fq"), out("fp"), weak);

  ClusterConfig fresh = config("fp-fresh");
  fresh.fingerprints = weak.fingerprints;
  const DistributedResult expected =
      run_distributed(dir_.file("reads.fq"), out("fp-fresh"), fresh);
  EXPECT_EQ(resumed.phases_resumed, 0u);
  EXPECT_EQ(resumed.candidate_edges, expected.candidate_edges);
  EXPECT_EQ(resumed.accepted_edges, expected.accepted_edges);
  EXPECT_EQ(slurp(out("fp")), slurp(out("fp-fresh")));
}

TEST_F(DistRecoveryTest, SingletonSwitchResumesAFinishedRun) {
  // Singletons only change the FASTA, which compress rewrites on every run,
  // so the switch stays out of the config hash: a finished 4-node
  // checkpoint restores every phase but compress and writes what a fresh
  // run with singletons writes.
  ClusterConfig c = config("singletons");
  c.node_count = 4;
  (void)run_distributed(dir_.file("reads.fq"), out("singletons"), c);
  const std::string without = slurp(out("singletons"));
  c.include_singletons = true;
  c.resume = true;
  EXPECT_EQ(run_distributed(dir_.file("reads.fq"), out("resumed"), c)
                .phases_resumed,
            4u);

  c.work_dir = config("singletons-fresh").work_dir;
  c.resume = false;
  (void)run_distributed(dir_.file("reads.fq"), out("singletons-fresh"), c);
  const std::string with = slurp(out("singletons-fresh"));
  EXPECT_EQ(slurp(out("resumed")), with);
  EXPECT_NE(with, without);  // the switch bites
}

TEST_F(DistRecoveryTest, ResizedSidecarsAreRecomputed) {
  // Each reduce sidecar kind, one byte short, one byte long or with one bit
  // of its first record flipped: it no longer loads, so the resume ignores
  // it and recomputes — the partition it covered for scan sidecars, the
  // reconciliation from scratch for the committed set.
  struct Kind {
    const char* name;
    ReduceStrategy strategy;
    core::GraphMode graph;
    const char* prefix;  ///< sidecar file name, up to the partition key
  };
  const Kind kinds[] = {
      {"token-cand", ReduceStrategy::kLengthToken, core::GraphMode::kGreedy,
       "checkpoint.reduce.cand.l"},
      {"spec-cand", ReduceStrategy::kSpeculative, core::GraphMode::kGreedy,
       "checkpoint.reduce.cand.l"},
      {"spec-committed", ReduceStrategy::kSpeculative,
       core::GraphMode::kGreedy, "checkpoint.spec.committed"},
      {"reduced-cand", ReduceStrategy::kLengthToken,
       core::GraphMode::kReduced, "checkpoint.reduce.cand.l"},
  };
  for (const Kind& kind : kinds) {
    for (const testing::SidecarDamage damage : testing::kSidecarDamages) {
      strategy_ = kind.strategy;
      graph_ = kind.graph;
      const std::string scenario = std::string("damaged-") + kind.name +
                                   "-" + testing::damage_name(damage);
      (void)run_full(scenario);
      const std::string reference = slurp(out(scenario));

      const std::filesystem::path victim =
          first_sidecar(config(scenario).work_dir, kind.prefix);
      ASSERT_FALSE(victim.empty()) << scenario;
      testing::damage_sidecar(victim, damage);

      ClusterConfig c = config(scenario);
      c.resume = true;
      const DistributedResult resumed =
          run_distributed(dir_.file("reads.fq"), out(scenario), c);
      EXPECT_EQ(slurp(out(scenario)), reference) << scenario;
      const bool committed = std::string(kind.name) == "spec-committed";
      EXPECT_EQ(resumed.stats.phase("reduce").resumed, committed) << scenario;
    }
  }
}

TEST_F(DistRecoveryTest, RejectedNodeManifestRestartsEveryNode) {
  // One node's manifest does not load (a counter that is not a number),
  // so that node starts over, and with it every node: the others' resumed
  // phases would skip the shuffle it needs.
  (void)run_full("manifest");
  const std::string reference = slurp(out("manifest"));
  ClusterConfig c = config("manifest");
  std::ofstream(c.work_dir / "node1" / "checkpoint.manifest", std::ios::app)
      << "entry phase:map records=abc\n";
  c.resume = true;
  const DistributedResult resumed =
      run_distributed(dir_.file("reads.fq"), out("manifest"), c);
  EXPECT_EQ(resumed.phases_resumed, 0u);
  EXPECT_EQ(slurp(out("manifest")), reference);
}

TEST_F(DistRecoveryTest, MalformedKeySuffixRestartsEveryNode) {
  // A shuffle entry whose key number does not parse rejects node 1's
  // manifest, so every node starts fresh into the same contigs instead of
  // failing on the key.
  (void)run_full("suffix");
  ClusterConfig c = config("suffix");
  corrupt_key(c.work_dir / "node1" / "checkpoint.manifest",
              "entry shuffle:key:", 'x');
  c.resume = true;
  const DistributedResult resumed =
      run_distributed(dir_.file("reads.fq"), out("suffix-resumed"), c);
  EXPECT_EQ(resumed.phases_resumed, 0u);
  EXPECT_EQ(slurp(out("suffix-resumed")), slurp(out("suffix")));
}

TEST_F(DistRecoveryTest, NodeScopedPolicyOnlyFiresOnThatNode) {
  // A kill scoped to node 7 of a 2-node cluster can never fire.
  auto injector = io::FaultInjector::parse("node:nth=1,node=7");
  io::FaultInjector::ScopedInstall guard(injector.get());
  const DistributedResult result = run_full("scoped");
  EXPECT_EQ(injector->injected(), 0u);
  EXPECT_GT(result.contigs.count, 0u);
}

}  // namespace
}  // namespace lasagna::dist
