// Tests for the causal profiler (obs/profile.hpp): merged Chrome-trace
// schema (flow span ids must resolve), critical-path coverage and
// determinism across node counts, reduce strategies and single-node runs,
// and the guarantee that an installed profiler never perturbs the modeled
// run.
//
// Also hosts the CI trace linter: when LASAGNA_TRACE_LINT names a trace
// file, Profile.TraceLintValidatesExternalFile schema-checks it, so the CI
// obs shard can validate a real `assemble_fastq --nodes=4 --trace-out`
// artifact with the same code the unit tests use.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dist/cluster.hpp"
#include "io/tempdir.hpp"
#include "obs/json_parse.hpp"
#include "obs/profile.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"

namespace lasagna::obs {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct Dataset {
  io::ScopedTempDir dir{"lasagna-profile"};
  std::string genome;
};

Dataset make_dataset(std::uint64_t genome_len = 4000, double coverage = 16.0,
                     unsigned read_len = 80) {
  Dataset d;
  d.genome = seq::random_genome(genome_len, 31);
  seq::SequencingSpec spec;
  spec.read_length = read_len;
  spec.coverage = coverage;
  spec.seed = 32;
  seq::simulate_to_fastq(d.genome, spec, d.dir.file("reads.fq"));
  return d;
}

dist::ClusterConfig small_cluster(unsigned nodes,
                                  dist::ReduceStrategy strategy) {
  dist::ClusterConfig config = dist::ClusterConfig::supermic(nodes, 4096.0);
  config.min_overlap = 50;
  config.machine.host_memory_bytes = 1 << 19;
  config.machine.device_memory_bytes = 1 << 16;
  config.reduce_strategy = strategy;
  return config;
}

/// Deterministic-replay variant for byte-compare tests: the fused streamed
/// ingest depends on real chunk arrival order, so its modeled device lane
/// is wall-timing-dependent (contigs stay identical, clocks don't). Map
/// blocks are assigned round-robin, so synchronous phases make the modeled
/// run — and therefore the profiler report — a pure function of the input.
dist::ClusterConfig sync_cluster(unsigned nodes,
                                 dist::ReduceStrategy strategy) {
  dist::ClusterConfig config = small_cluster(nodes, strategy);
  config.streamed = false;
  config.fuse_shuffle = false;
  return config;
}

/// Run the distributed assembly with a fresh profiler installed; the
/// profiler outlives the run so callers can extract reports/traces.
dist::DistributedResult run_profiled(const Dataset& d, Profiler& profiler,
                                     const dist::ClusterConfig& config,
                                     const std::string& tag) {
  Profiler::ScopedInstall install(&profiler);
  return dist::run_distributed(d.dir.file("reads.fq"),
                               d.dir.file(tag + ".fa"), config);
}

/// Single-node configuration on the same small machine as small_cluster.
core::AssemblyConfig small_assembly(core::GraphMode graph, bool streamed) {
  core::AssemblyConfig config;
  config.min_overlap = 50;
  config.machine.host_memory_bytes = 1 << 19;
  config.machine.device_memory_bytes = 1 << 16;
  config.graph = graph;
  config.streamed_map = streamed;
  config.streamed_sort = streamed;
  config.streamed_reduce = streamed;
  return config;
}

/// Run the single-node assembly with `profiler` installed (null: none).
core::AssemblyResult assemble(const Dataset& d, Profiler* profiler,
                              const core::AssemblyConfig& config,
                              const std::string& tag) {
  Profiler::ScopedInstall install(profiler);
  core::Assembler assembler(config);
  return assembler.run(d.dir.file("reads.fq"), d.dir.file(tag + ".fa"));
}

/// Schema-check a merged Chrome trace document. Returns an empty string
/// when valid, else a description of the first violation. Rules:
///   - top level is {"traceEvents": [...]}
///   - every 'X' event carries args.span (its graph span id), args.phase,
///     a pid >= 1 and a dur >= 0
///   - every 's'/'f' flow event carries args.from/args.to, both of which
///     resolve to some 'X' event's span id; 'f' events bind with bp "e"
///   - metadata 'M' events are process_name/thread_name rows only
std::string validate_merged_trace(const std::string& text) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(text);
  } catch (const std::exception& e) {
    return std::string("parse error: ") + e.what();
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return "missing traceEvents array";
  }

  std::set<std::uint64_t> span_ids;
  for (const JsonValue& ev : events->array) {
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string()) return "event without ph";
    if (ph->string != "X") continue;
    const JsonValue* args = ev.find("args");
    const JsonValue* span = args != nullptr ? args->find("span") : nullptr;
    if (span == nullptr || !span->is_number()) return "X event without span id";
    const JsonValue* phase = args->find("phase");
    if (phase == nullptr || !phase->is_number()) {
      return "X event without phase index";
    }
    const JsonValue* pid = ev.find("pid");
    if (pid == nullptr || !pid->is_number() || pid->number < 1.0) {
      return "X event with bad pid";
    }
    const JsonValue* dur = ev.find("dur");
    if (dur == nullptr || !dur->is_number() || dur->number < 0.0) {
      return "X event with bad dur";
    }
    span_ids.insert(static_cast<std::uint64_t>(span->number));
  }

  for (const JsonValue& ev : events->array) {
    const std::string& ph = ev.find("ph")->string;
    if (ph == "M") {
      const JsonValue* name = ev.find("name");
      if (name == nullptr || !name->is_string() ||
          (name->string != "process_name" && name->string != "thread_name")) {
        return "unexpected metadata event";
      }
      continue;
    }
    if (ph != "s" && ph != "f") continue;
    if (ev.find("id") == nullptr) return "flow event without id";
    const JsonValue* args = ev.find("args");
    const JsonValue* from = args != nullptr ? args->find("from") : nullptr;
    const JsonValue* to = args != nullptr ? args->find("to") : nullptr;
    if (from == nullptr || !from->is_number() || to == nullptr ||
        !to->is_number()) {
      return "flow event without from/to span ids";
    }
    if (span_ids.count(static_cast<std::uint64_t>(from->number)) == 0) {
      return "flow 'from' does not resolve to an X span";
    }
    if (span_ids.count(static_cast<std::uint64_t>(to->number)) == 0) {
      return "flow 'to' does not resolve to an X span";
    }
    if (ph == "f") {
      const JsonValue* bp = ev.find("bp");
      if (bp == nullptr || !bp->is_string() || bp->string != "e") {
        return "flow finish without bp:e";
      }
    }
  }
  return "";
}

std::size_t count_events(const std::string& text, const std::string& ph) {
  const JsonValue doc = JsonValue::parse(text);
  std::size_t n = 0;
  for (const JsonValue& ev : doc.find("traceEvents")->array) {
    if (ev.find("ph")->string == ph) ++n;
  }
  return n;
}

TEST(Profile, ChainAccountingIsExactAndDeterministic) {
  const auto record = [](Profiler& p) {
    p.begin_phase("demo", 0);
    p.chain(0, "host", "scan", 1'000'000);
    p.chain(1, "network", "incast-wait", 500'000);
    p.chain(0, "host", "scan", 250'000);  // merges with the first slice
    p.end_phase(1'750'000);
  };
  Profiler a;
  record(a);
  const auto paths = a.critical_paths();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].name, "demo");
  EXPECT_EQ(paths[0].critical_ps, 1'750'000);
  EXPECT_DOUBLE_EQ(paths[0].coverage_percent(), 100.0);
  ASSERT_EQ(paths[0].slices.size(), 2u);
  EXPECT_EQ(paths[0].slices[0].kind, "scan");
  EXPECT_EQ(paths[0].slices[0].ps, 1'250'000);
  EXPECT_EQ(paths[0].slices[1].kind, "incast-wait");
  EXPECT_EQ(paths[0].slices[1].node, 1);

  Profiler b;
  record(b);
  EXPECT_EQ(a.report_json(), b.report_json());
  EXPECT_NE(a.report_json().find("incast-wait"), std::string::npos);
}

TEST(Profile, MergedTraceSchemaResolvesFlows) {
  const Dataset d = make_dataset();
  Profiler profiler;
  const auto result = run_profiled(
      d, profiler, small_cluster(4, dist::ReduceStrategy::kLengthToken),
      "trace4");
  ASSERT_GT(result.contigs.total_bases, 0u);

  const std::string trace = profiler.merged_chrome_trace_json();
  EXPECT_EQ(validate_merged_trace(trace), "");
  // A 4-node token run crosses nodes constantly (shuffle pushes, token
  // passes): the merged trace must contain resolved flow arrows.
  EXPECT_GT(count_events(trace, "s"), 0u);
  EXPECT_EQ(count_events(trace, "s"), count_events(trace, "f"));

  // One process row per simulated node.
  const JsonValue doc = JsonValue::parse(trace);
  std::set<std::string> process_rows;
  for (const JsonValue& ev : doc.find("traceEvents")->array) {
    if (ev.find("ph")->string == "M" &&
        ev.find("name")->string == "process_name") {
      process_rows.insert(ev.find("args")->find("name")->string);
    }
  }
  for (const char* row : {"node0", "node1", "node2", "node3"}) {
    EXPECT_EQ(process_rows.count(row), 1u) << row;
  }
}

TEST(Profile, CriticalPathCoversEveryPhase) {
  const Dataset d = make_dataset();
  const auto check = [](const Profiler& profiler,
                        const std::vector<std::string>& phases) {
    const auto paths = profiler.critical_paths();
    ASSERT_FALSE(paths.empty());
    std::set<std::string> names;
    for (const PhaseCriticalPath& path : paths) {
      EXPECT_GE(path.coverage_percent(), 95.0) << path.name;
      names.insert(path.name);
    }
    for (const std::string& phase : phases) {
      EXPECT_EQ(names.count(phase), 1u) << phase;
    }
  };
  for (const auto strategy : {dist::ReduceStrategy::kLengthToken,
                              dist::ReduceStrategy::kSpeculative}) {
    Profiler profiler;
    run_profiled(d, profiler, small_cluster(4, strategy), "coverage");
    check(profiler, {"map", "shuffle", "sort", "reduce"});
  }
  // A single-node run is a one-node run: every phase has a chain too.
  Profiler greedy;
  (void)assemble(d, &greedy, small_assembly(core::GraphMode::kGreedy, true),
                 "greedy");
  check(greedy, {"load", "map", "sort", "reduce", "compress"});
  Profiler reduced;
  (void)assemble(d, &reduced,
                 small_assembly(core::GraphMode::kReduced, true), "reduced");
  check(reduced, {"load", "map", "sort", "reduce", "reduction", "compress"});
}

TEST(Profile, ReportIsDeterministicAcrossRunsAndNodeCounts) {
  const Dataset d = make_dataset();
  for (const unsigned nodes : {1u, 4u, 32u}) {
    for (const auto strategy : {dist::ReduceStrategy::kLengthToken,
                                dist::ReduceStrategy::kSpeculative}) {
      std::string reports[2];
      for (int run = 0; run < 2; ++run) {
        Profiler profiler;
        run_profiled(d, profiler, sync_cluster(nodes, strategy),
                     "det" + std::to_string(run));
        reports[run] = profiler.report_json();
      }
      EXPECT_EQ(reports[0], reports[1])
          << nodes << " nodes, strategy "
          << (strategy == dist::ReduceStrategy::kSpeculative ? "speculative"
                                                             : "token");
      EXPECT_NE(reports[0].find("\"phases\""), std::string::npos);
    }
  }
  for (const bool streamed : {true, false}) {
    std::string reports[2];
    for (int run = 0; run < 2; ++run) {
      Profiler profiler;
      (void)assemble(d, &profiler,
                     small_assembly(core::GraphMode::kGreedy, streamed),
                     "single" + std::to_string(run));
      reports[run] = profiler.report_json();
    }
    EXPECT_EQ(reports[0], reports[1]) << "single node, streamed=" << streamed;
    EXPECT_NE(reports[0].find("\"compress\""), std::string::npos);
  }
}

TEST(Profile, InstalledProfilerDoesNotPerturbTheRun) {
  const Dataset d = make_dataset();
  const auto config = sync_cluster(4, dist::ReduceStrategy::kSpeculative);

  ASSERT_EQ(Profiler::active(), nullptr);
  const auto plain = dist::run_distributed(d.dir.file("reads.fq"),
                                           d.dir.file("plain.fa"), config);
  Profiler profiler;
  const auto profiled = run_profiled(d, profiler, config, "profiled");

  // Byte-identical contigs and identical modeled clocks: the profiler
  // observes the model, it never feeds back into it.
  EXPECT_EQ(slurp(d.dir.file("plain.fa")), slurp(d.dir.file("profiled.fa")));
  EXPECT_EQ(plain.accepted_edges, profiled.accepted_edges);
  ASSERT_EQ(plain.stats.phases().size(), profiled.stats.phases().size());
  for (std::size_t i = 0; i < plain.stats.phases().size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.stats.phases()[i].modeled_seconds,
                     profiled.stats.phases()[i].modeled_seconds)
        << plain.stats.phases()[i].name;
  }
  // The same holds for a single-node run.
  const auto single = small_assembly(core::GraphMode::kGreedy, true);
  const auto plain_single = assemble(d, nullptr, single, "plain1");
  Profiler single_profiler;
  const auto profiled_single =
      assemble(d, &single_profiler, single, "profiled1");
  EXPECT_EQ(slurp(d.dir.file("plain1.fa")),
            slurp(d.dir.file("profiled1.fa")));
  ASSERT_EQ(plain_single.stats.phases().size(),
            profiled_single.stats.phases().size());
  for (std::size_t i = 0; i < plain_single.stats.phases().size(); ++i) {
    EXPECT_EQ(plain_single.stats.phases()[i].modeled_seconds,
              profiled_single.stats.phases()[i].modeled_seconds)
        << plain_single.stats.phases()[i].name;
  }
  // And without an installed profiler, nothing is recorded.
  EXPECT_EQ(Profiler::active(), nullptr);
}

TEST(Profile, TraceLintValidatesExternalFile) {
  const char* path = std::getenv("LASAGNA_TRACE_LINT");
  if (path == nullptr) {
    GTEST_SKIP() << "set LASAGNA_TRACE_LINT=<trace.json> to lint a file";
  }
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << path;
  EXPECT_EQ(validate_merged_trace(text), "") << path;
  EXPECT_GT(count_events(text, "X"), 0u) << path;
}

}  // namespace
}  // namespace lasagna::obs
