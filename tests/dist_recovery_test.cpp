// Node-failure recovery for the distributed pipeline: kill node k with an
// injected "node:" fault mid-map, mid-sort and mid-reduce, resume from the
// per-node checkpoint manifests, and require (a) contigs byte-identical to
// an uninterrupted run, (b) identical result counters, (c) strictly less
// disk traffic than a cold rerun — the surviving nodes' completed prefix
// (and the work the master rebalanced onto them after the kill) is not
// redone. It also pins the resume guards: a finished run resumes into
// identical contigs in every reduce mode, a checkpoint made with different
// fingerprint parameters restores nothing, and a sidecar whose size no
// longer matches its manifest count is recomputed.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "dist/cluster.hpp"
#include "io/fault_injector.hpp"
#include "io/tempdir.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"

namespace lasagna::dist {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The lexicographically first non-empty sidecar under any node of
/// `work_dir` named `prefix`...`suffix`, or an empty path.
std::filesystem::path first_sidecar(const std::filesystem::path& work_dir,
                                    const std::string& prefix,
                                    const std::string& suffix) {
  std::set<std::filesystem::path> found;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(work_dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && entry.file_size() > 0 &&
        name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      found.insert(entry.path());
    }
  }
  return found.empty() ? std::filesystem::path() : *found.begin();
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
  // Node 1 dies on its first map block; node 0 keeps draining the block
  // dispenser (the master's rebalancing), so only the killed block is
  // re-mapped — and re-pushed idempotently — on resume.
  check_scenario("map", "node:nth=1,node=1,match=map:block", 0);
}

TEST_F(DistRecoveryTest, NodeKilledMidSortResumesMapAndShuffle) {
  // The kill fires on the second partition sort anywhere in the cluster;
  // map blocks and merged shuffle partitions all resume from manifests.
  check_scenario("sort", "node:nth=2,match=sort:", 2);
}

TEST_F(DistRecoveryTest, NodeKilledMidReduceResumesFromTokenSidecars) {
  // The kill fires mid token ring. The completed prefix of reduce
  // partitions is restored from the per-partition delta sidecars; map,
  // shuffle and sort all resume whole.
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
  // Reduced graph mode: the kill fires on the second full-candidate
  // sidecar write inside the distributed reduction's scan stage. On resume
  // the finished partitions' candidate sets restore from their sidecars
  // (no re-scan); the deterministic routing, blocked reduction and stitch
  // superstep replay over the restored multiset, so contigs, edge counts
  // and the full-graph/reduction counters all match the uninterrupted run.
  graph_ = core::GraphMode::kReduced;
  const DistributedResult full = run_full("ref-reduced-scan");
  const DistributedResult resumed = crash_and_resume(
      "reduced-scan", "node:nth=2,match=reduce:fullcand");
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

TEST_F(DistRecoveryTest, ResizedSidecarsAreRecomputed) {
  // Each reduce sidecar kind, one byte short or one byte long: its element
  // count no longer matches the manifest, so the resume ignores it and
  // recomputes — the partition it covered for scan sidecars, the
  // reconciliation from scratch for the committed set.
  struct Kind {
    const char* name;
    ReduceStrategy strategy;
    core::GraphMode graph;
    const char* prefix;  ///< sidecar file name, up to the partition key
    const char* suffix;
  };
  const Kind kinds[] = {
      {"token-bits", ReduceStrategy::kLengthToken, core::GraphMode::kGreedy,
       "checkpoint.reduce.l", ".token"},
      {"token-edges", ReduceStrategy::kLengthToken, core::GraphMode::kGreedy,
       "checkpoint.reduce.l", ".edges"},
      {"spec-cand", ReduceStrategy::kSpeculative, core::GraphMode::kGreedy,
       "checkpoint.spec.cand.l", ""},
      {"spec-committed", ReduceStrategy::kSpeculative,
       core::GraphMode::kGreedy, "checkpoint.spec.committed", ""},
      {"full-cand", ReduceStrategy::kLengthToken, core::GraphMode::kReduced,
       "checkpoint.full.cand.l", ""},
  };
  for (const Kind& kind : kinds) {
    for (const int delta : {-1, 1}) {
      strategy_ = kind.strategy;
      graph_ = kind.graph;
      const std::string scenario = std::string("resized-") + kind.name +
                                   (delta < 0 ? "-short" : "-long");
      (void)run_full(scenario);
      const std::string reference = slurp(out(scenario));

      const std::filesystem::path victim =
          first_sidecar(config(scenario).work_dir, kind.prefix, kind.suffix);
      ASSERT_FALSE(victim.empty()) << scenario;
      std::filesystem::resize_file(
          victim, std::filesystem::file_size(victim) + delta);

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
