// Fig 10, extended: distributed execution times per phase on 1-64
// SuperMIC-style nodes (K20X + 64 GB, scaled), on the H.Genome dataset.
// Reports modeled phase times (per-node four-lane device/disk/host/network
// model; event-driven token model for the reduce phase) for the
// synchronous and the streamed overlap configuration, checks the contigs
// are byte-identical across every cell of the sweep, and writes the
// trajectory baseline to BENCH_distributed.json.
//
// Two sweeps:
//   strong — fixed dataset, nodes in {1,2,4,8,16,32,64}; speedup vs 1 node
//   weak   — per-node data held constant (dataset grows with the cluster),
//            nodes in {1,4,16,64}; efficiency = t(1)/t(n)
//
// Expected shape (paper + PR 6/7): total time falls with node count
// thanks to aggregated I/O bandwidth; the fused push shuffle forms sort
// runs while the map still runs, so the shuffle exposes almost nothing and
// the sort starts at the merge tree; the wire codec shrinks remote push
// bytes; the token reduce scales worst (token-serialized graph build),
// which the speculative reduce breaks — candidate scans parallelize and
// reconciliation supersteps pipeline under the scan frontier, producing
// byte-identical contigs. The exit code enforces:
//   - contigs byte-identical and shuffle_hash equal at every node count,
//     for sync, streamed and speculative runs
//   - streamed total >= 20% below sync at 8 nodes
//   - streamed reduce <= sync reduce at every node count
//   - speculative reduce <= 0.6x the token reduce at 32 nodes
//   - shuffle overlap_efficiency > 1.15 (not stuck at 1.00) at >= 4 nodes
//   - causal profiler: the extracted critical path explains >= 95% of the
//     modeled seconds of every phase in every strong-sweep cell (sync,
//     streamed and speculative runs all profiled)
//   - at 32 and 64 nodes the speculative reduce's two largest critical-path
//     categories are straggler-scan and incast-wait (the master-gather
//     incast) — the attribution the profiler exists to produce
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dist/cluster.hpp"
#include "io/tempdir.hpp"
#include "obs/profile.hpp"

using namespace lasagna;

namespace {

const char* kPhases[] = {"map", "shuffle", "sort", "reduce", "compress"};
constexpr unsigned kStrongNodes[] = {1, 2, 4, 8, 16, 32, 64};
constexpr unsigned kWeakNodes[] = {1, 4, 16, 64};

/// One run under a fresh causal profiler: the result plus the extracted
/// per-phase critical paths.
struct ProfiledRun {
  dist::DistributedResult result;
  std::vector<obs::PhaseCriticalPath> paths;

  [[nodiscard]] double min_coverage() const {
    double worst = 100.0;
    for (const auto& p : paths) {
      worst = std::min(worst, p.coverage_percent());
    }
    return worst;
  }

  [[nodiscard]] const obs::PhaseCriticalPath* phase(
      const std::string& name) const {
    for (const auto& p : paths) {
      if (p.name == name) return &p;
    }
    return nullptr;
  }
};

ProfiledRun run_profiled(const std::filesystem::path& fastq,
                         const std::filesystem::path& out,
                         const dist::ClusterConfig& config) {
  obs::Profiler prof;
  obs::Profiler::ScopedInstall install(&prof);
  ProfiledRun run;
  run.result = dist::run_distributed(fastq, out, config);
  run.paths = prof.critical_paths();
  return run;
}

/// Aggregate one phase's critical-path slices by kind, largest first
/// (seconds); ties break by name so the order is deterministic.
std::vector<std::pair<std::string, double>> kinds_by_seconds(
    const obs::PhaseCriticalPath& path) {
  std::map<std::string, std::int64_t> sums;
  for (const auto& s : path.slices) sums[s.kind] += s.ps;
  std::vector<std::pair<std::string, double>> kinds;
  kinds.reserve(sums.size());
  for (const auto& [kind, ps] : sums) {
    kinds.emplace_back(kind, static_cast<double>(ps) * 1e-12);
  }
  std::sort(kinds.begin(), kinds.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return kinds;
}

struct Guards {
  bool contigs_identical = true;
  bool hashes_match = true;
  bool reduce_ok = true;
  bool spec_identical = true;  ///< speculative contigs == token contigs
  double reduction_at_8 = 0.0;
  double min_shuffle_oe_at_4plus = -1.0;  ///< streamed runs, nodes >= 4
  double spec_vs_token_at_32 = 0.0;  ///< spec reduce / token reduce
  double min_critical_coverage = 100.0;  ///< all phases, all strong runs
  bool reduce_attribution_ok = true;  ///< spec @32/64: stragglers + incast

  [[nodiscard]] bool pass() const {
    return contigs_identical && hashes_match && reduce_ok &&
           spec_identical && reduction_at_8 >= 20.0 &&
           spec_vs_token_at_32 <= 0.6 &&
           (min_shuffle_oe_at_4plus < 0.0 ||
            min_shuffle_oe_at_4plus > 1.15) &&
           min_critical_coverage >= 95.0 && reduce_attribution_ok;
  }
};

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  if (args.dataset.empty()) args.dataset = "H.Genome";
  const auto spec = seq::paper_dataset(args.dataset, args.scale);
  const auto fastq = bench::materialize(spec);
  bench::ScopedObservability observability(args, 500e6 / args.scale);

  std::printf(
      "=== Fig 10 — distributed scaling (modeled), %s at scale %.0f\n",
      spec.name.c_str(), args.scale);

  Guards guards;
  std::uint64_t reference_contigs = 0;  ///< 1-node streamed contig hash
  std::uint64_t reference_shuffle = 0;
  std::string strong_json;
  std::string weak_json;

  // ---- strong scaling: fixed dataset, 1..64 nodes --------------------------
  std::printf("-- strong scaling, length-token reduce --\n");
  bench::print_row("nodes/mode", {"map", "shuffle", "sort", "reduce",
                                  "compress", "total", "wire", "work hw"});
  double strong_t1 = 0.0;  ///< streamed total at 1 node
  for (const unsigned nodes : kStrongNodes) {
    bench::ScopedMetricsCell metrics_cell;
    io::ScopedTempDir out("lasagna-fig10");
    ProfiledRun runs[2];  // [0]=sync, [1]=streamed
    for (const bool streamed : {false, true}) {
      dist::ClusterConfig config =
          dist::ClusterConfig::supermic(nodes, args.scale);
      config.min_overlap = spec.min_overlap;
      config.streamed = streamed;
      runs[streamed] = run_profiled(
          fastq, out.file(streamed ? "streamed.fa" : "sync.fa"), config);
      const dist::DistributedResult& r = runs[streamed].result;

      std::vector<std::string> cells;
      for (const char* phase : kPhases) {
        cells.push_back(
            bench::cell_time(r.stats.phase(phase).modeled_seconds));
      }
      cells.push_back(bench::cell_time(r.stats.total_modeled_seconds()));
      cells.push_back(bench::cell_bytes(r.wire_bytes));
      cells.push_back(bench::cell_bytes(r.peak_workspace_bytes));
      bench::print_row(
          std::to_string(nodes) + (streamed ? " stream" : " sync"), cells);
    }
    const dist::DistributedResult* results[2] = {&runs[0].result,
                                                 &runs[1].result};

    // Speculative reduce, streamed: same cell, third row.
    ProfiledRun spec_run;
    {
      dist::ClusterConfig config =
          dist::ClusterConfig::supermic(nodes, args.scale);
      config.min_overlap = spec.min_overlap;
      config.reduce_strategy = dist::ReduceStrategy::kSpeculative;
      spec_run = run_profiled(fastq, out.file("spec.fa"), config);
      std::vector<std::string> cells;
      for (const char* phase : kPhases) {
        cells.push_back(bench::cell_time(
            spec_run.result.stats.phase(phase).modeled_seconds));
      }
      cells.push_back(
          bench::cell_time(spec_run.result.stats.total_modeled_seconds()));
      cells.push_back(bench::cell_bytes(spec_run.result.wire_bytes));
      cells.push_back(bench::cell_bytes(spec_run.result.peak_workspace_bytes));
      bench::print_row(std::to_string(nodes) + " spec", cells);
    }
    const dist::DistributedResult& spec_result = spec_run.result;

    // Critical-path gates: the causal graph must explain >= 95% of the
    // modeled time of every phase in every run of this cell, and at 32/64
    // nodes the speculative reduce's top two categories must be the
    // straggler scans and the master-gather incast.
    const double cell_coverage =
        std::min({runs[0].min_coverage(), runs[1].min_coverage(),
                  spec_run.min_coverage()});
    guards.min_critical_coverage =
        std::min(guards.min_critical_coverage, cell_coverage);
    std::vector<std::pair<std::string, double>> reduce_kinds;
    if (const obs::PhaseCriticalPath* rp = spec_run.phase("reduce")) {
      reduce_kinds = kinds_by_seconds(*rp);
    }
    if (nodes >= 32) {
      const bool top2_ok =
          reduce_kinds.size() >= 2 &&
          ((reduce_kinds[0].first == "straggler-scan" &&
            reduce_kinds[1].first == "incast-wait") ||
           (reduce_kinds[0].first == "incast-wait" &&
            reduce_kinds[1].first == "straggler-scan"));
      guards.reduce_attribution_ok = guards.reduce_attribution_ok && top2_ok;
      if (!top2_ok) {
        std::printf("%-10s !! spec reduce attribution: top kinds", "");
        for (std::size_t i = 0; i < reduce_kinds.size() && i < 3; ++i) {
          std::printf(" %s=%.4fs", reduce_kinds[i].first.c_str(),
                      reduce_kinds[i].second);
        }
        std::printf("\n");
      }
    }

    // Byte-identity guards: every cell must match the 1-node streamed run.
    const std::uint64_t sync_hash = bench::file_hash(out.file("sync.fa"));
    const std::uint64_t streamed_hash =
        bench::file_hash(out.file("streamed.fa"));
    const std::uint64_t spec_hash = bench::file_hash(out.file("spec.fa"));
    if (reference_contigs == 0) reference_contigs = streamed_hash;
    guards.spec_identical =
        guards.spec_identical && spec_hash == reference_contigs;
    if (reference_shuffle == 0) reference_shuffle = results[1]->shuffle_hash;
    const bool cell_identical =
        sync_hash == reference_contigs && streamed_hash == reference_contigs;
    guards.contigs_identical = guards.contigs_identical && cell_identical;
    guards.hashes_match = guards.hashes_match &&
                          results[0]->shuffle_hash == reference_shuffle &&
                          results[1]->shuffle_hash == reference_shuffle;

    const double sync_total = results[0]->stats.total_modeled_seconds();
    const double streamed_total = results[1]->stats.total_modeled_seconds();
    if (nodes == 1) strong_t1 = streamed_total;
    const double reduction =
        sync_total > 0.0 ? 100.0 * (1.0 - streamed_total / sync_total) : 0.0;
    if (nodes == 8) guards.reduction_at_8 = reduction;

    const double sync_reduce =
        results[0]->stats.phase("reduce").modeled_seconds;
    const double streamed_reduce =
        results[1]->stats.phase("reduce").modeled_seconds;
    guards.reduce_ok =
        guards.reduce_ok && streamed_reduce <= sync_reduce * (1.0 + 1e-9);
    const double spec_reduce =
        spec_result.stats.phase("reduce").modeled_seconds;
    const double spec_vs_token =
        streamed_reduce > 0.0 ? spec_reduce / streamed_reduce : 0.0;
    if (nodes == 32) guards.spec_vs_token_at_32 = spec_vs_token;

    const double shuffle_oe =
        results[1]->stats.phase("shuffle").overlap_efficiency;
    if (nodes >= 4 &&
        (guards.min_shuffle_oe_at_4plus < 0.0 ||
         shuffle_oe < guards.min_shuffle_oe_at_4plus)) {
      guards.min_shuffle_oe_at_4plus = shuffle_oe;
    }

    std::printf(
        "%-10s overlap hides %.1f%%, speedup %.2fx, shuffle oe %.2f, "
        "codec %.2fx, spec reduce %.2fx token (%u supersteps, %u rounds, "
        "%llu conflicts)%s%s%s\n",
        "", reduction,
        streamed_total > 0.0 ? strong_t1 / streamed_total : 0.0, shuffle_oe,
        results[1]->compression_ratio, spec_vs_token,
        spec_result.reduce_supersteps, spec_result.reduce_rounds,
        static_cast<unsigned long long>(spec_result.reduce_conflicts),
        cell_identical ? "" : "  !! contig mismatch",
        spec_hash == reference_contigs ? "" : "  !! spec contig mismatch",
        results[1]->shuffle_hash == reference_shuffle ? ""
                                                     : "  !! hash mismatch");

    std::string phases_json;
    for (const char* name : kPhases) {
      const auto& sync_phase = results[0]->stats.phase(name);
      const auto& streamed_phase = results[1]->stats.phase(name);
      char entry[512];
      std::snprintf(entry, sizeof(entry),
                    "      {\"name\": \"%s\", \"sync_modeled_seconds\": "
                    "%.6f, \"streamed_modeled_seconds\": %.6f,"
                    " \"device_seconds\": %.6f, \"disk_seconds\": %.6f,"
                    " \"host_seconds\": %.6f, \"overlap_efficiency\": "
                    "%.4f}",
                    name, sync_phase.modeled_seconds,
                    streamed_phase.modeled_seconds,
                    streamed_phase.device_seconds,
                    streamed_phase.disk_seconds, streamed_phase.host_seconds,
                    streamed_phase.overlap_efficiency);
      if (!phases_json.empty()) phases_json += ",\n";
      phases_json += entry;
    }
    char entry[1024];
    std::snprintf(
        entry, sizeof(entry),
        "    {\n"
        "      \"dataset\": \"%s@%un\",\n"
        "      \"reads\": %llu,\n"
        "      \"sync_modeled_seconds\": %.6f,\n"
        "      \"streamed_modeled_seconds\": %.6f,\n"
        "      \"reduction_percent\": %.2f,\n"
        "      \"speedup_vs_1\": %.4f,\n"
        "      \"shuffle_bytes\": %llu,\n"
        "      \"wire_bytes\": %llu,\n"
        "      \"compression_ratio\": %.4f,\n"
        "      \"peak_workspace_bytes\": %llu,\n"
        "      \"shuffle_hash\": \"%016llx\",\n"
        "      \"contigs_identical\": %s,\n",
        spec.name.c_str(), nodes,
        static_cast<unsigned long long>(results[1]->read_count), sync_total,
        streamed_total, reduction,
        streamed_total > 0.0 ? strong_t1 / streamed_total : 0.0,
        static_cast<unsigned long long>(results[1]->shuffle_bytes),
        static_cast<unsigned long long>(results[1]->wire_bytes),
        results[1]->compression_ratio,
        static_cast<unsigned long long>(results[1]->peak_workspace_bytes),
        static_cast<unsigned long long>(results[1]->shuffle_hash),
        cell_identical ? "true" : "false");
    char spec_entry[512];
    std::snprintf(
        spec_entry, sizeof(spec_entry),
        "      \"spec_reduce_seconds\": %.6f,\n"
        "      \"spec_total_seconds\": %.6f,\n"
        "      \"spec_reduce_vs_token\": %.4f,\n"
        "      \"spec_supersteps\": %u,\n"
        "      \"spec_rounds\": %u,\n"
        "      \"spec_conflicts\": %llu,\n"
        "      \"spec_contigs_identical\": %s,\n"
        "      \"critical_coverage_percent\": %.4f,\n"
        "      \"reduce_critical\": [\n",
        spec_reduce, spec_result.stats.total_modeled_seconds(),
        spec_vs_token, spec_result.reduce_supersteps,
        spec_result.reduce_rounds,
        static_cast<unsigned long long>(spec_result.reduce_conflicts),
        spec_hash == reference_contigs ? "true" : "false", cell_coverage);
    // Speculative reduce critical path by kind — the straggler/incast
    // attribution the 32/64-node gate checks, machine-readable.
    std::string reduce_json;
    for (const auto& [kind, seconds] : reduce_kinds) {
      char kind_entry[160];
      std::snprintf(kind_entry, sizeof(kind_entry),
                    "        {\"name\": \"%s\", \"seconds\": %.6f}",
                    kind.c_str(), seconds);
      if (!reduce_json.empty()) reduce_json += ",\n";
      reduce_json += kind_entry;
    }
    if (!strong_json.empty()) strong_json += ",\n";
    strong_json += entry;
    strong_json += spec_entry;
    strong_json += reduce_json;
    strong_json += "\n      ],\n      \"phases\": [\n";
    strong_json += phases_json;
    strong_json += "\n      ]\n    }";
  }

  // ---- weak scaling: per-node data held constant ---------------------------
  // The dataset grows with the cluster (scale = base * 64 / nodes keeps the
  // 64-node cell at the strong-scaling dataset), while each node keeps the
  // strong-scaling machine. Ideal efficiency is t(1)/t(n) == 1.
  std::printf("-- weak scaling, streamed, per-node data constant --\n");
  bench::print_row("nodes", {"reads", "total", "efficiency"});
  double weak_t1 = 0.0;
  for (const unsigned nodes : kWeakNodes) {
    bench::ScopedMetricsCell metrics_cell;
    const auto weak_spec =
        seq::paper_dataset(args.dataset, args.scale * 64.0 / nodes);
    const auto weak_fastq = bench::materialize(weak_spec);
    io::ScopedTempDir out("lasagna-fig10-weak");
    dist::ClusterConfig config =
        dist::ClusterConfig::supermic(nodes, args.scale);
    config.min_overlap = weak_spec.min_overlap;
    const dist::DistributedResult r =
        dist::run_distributed(weak_fastq, out.file("weak.fa"), config);
    const double total = r.stats.total_modeled_seconds();
    if (nodes == 1) weak_t1 = total;
    const double efficiency = total > 0.0 ? weak_t1 / total : 0.0;
    bench::print_row(std::to_string(nodes),
                     {std::to_string(r.read_count),
                      bench::cell_time(total),
                      std::to_string(efficiency).substr(0, 5)});

    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "    {\"nodes\": %u, \"reads\": %llu, "
                  "\"streamed_modeled_seconds\": %.6f, "
                  "\"efficiency\": %.4f}",
                  nodes, static_cast<unsigned long long>(r.read_count),
                  total, efficiency);
    if (!weak_json.empty()) weak_json += ",\n";
    weak_json += entry;
  }

  {
    std::ofstream out("BENCH_distributed.json", std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"distributed\",\n"
        << "  \"machine\": \"SuperMIC\",\n"
        << "  \"scale\": " << args.scale << ",\n"
        << "  \"datasets\": [\n"
        << strong_json << "\n  ],\n"
        << "  \"weak_scaling\": [\n"
        << weak_json << "\n  ]\n}\n";
    std::printf("wrote BENCH_distributed.json\n");
  }

  std::printf(
      "contigs %s; shuffle hash %s; spec contigs %s; "
      "streamed hides %.1f%% at 8 nodes (target >= 20%%); min shuffle oe "
      "at >=4 nodes %.2f (target > 1.15); streamed reduce %s sync at every "
      "node count; spec reduce %.2fx token at 32 nodes (target <= 0.6)\n",
      guards.contigs_identical ? "byte-identical in every configuration"
                               : "MISMATCHED",
      guards.hashes_match ? "stable" : "MISMATCHED",
      guards.spec_identical ? "byte-identical" : "MISMATCHED",
      guards.reduction_at_8, guards.min_shuffle_oe_at_4plus,
      guards.reduce_ok ? "<=" : "EXCEEDS", guards.spec_vs_token_at_32);
  std::printf(
      "critical path explains >= %.2f%% of every phase (target >= 95%%); "
      "spec reduce attribution at 32/64 nodes %s\n",
      guards.min_critical_coverage,
      guards.reduce_attribution_ok ? "= stragglers + incast"
                                   : "WRONG (see rows above)");
  return guards.pass() ? 0 : 1;
}
