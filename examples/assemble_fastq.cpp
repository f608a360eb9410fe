// Command-line assembler over a real FASTQ/FASTA file:
//
//   $ ./examples/assemble_fastq reads.fastq contigs.fasta
//         [--min-overlap=63] [--host-mem-mb=32] [--device-mem-mb=3]
//         [--gpu=k40|k20x|p40|p100|v100] [--singletons] [--verify]
//         [--nodes=N] [--reduce=token|speculative]
//         [--graph=greedy|reduced]
//
// This is the "downstream user" entry point: point it at any Illumina-style
// short-read file and get contigs plus the paper-style phase breakdown.
// With --nodes=N the run goes through the simulated cluster (N nodes,
// active-message shuffle, per-node modeled clocks) instead of the
// single-node pipeline; --reduce picks the distributed reduce strategy and
// --graph=reduced swaps the greedy graph for the full string graph with
// parallel transitive reduction (Myers 2005) feeding the same unitig
// traversal. For a given graph mode the contigs are byte-identical in
// every configuration. The cluster has no --min-contig, --gfa or --verify
// settings, so it refuses them.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "dist/cluster.hpp"
#include "gpu/profile.hpp"
#include "io/fault_injector.hpp"
#include "kernel/backend.hpp"
#include "kernel/dump.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

using namespace lasagna;

namespace {

const gpu::GpuProfile& profile_by_name(const std::string& name) {
  if (name == "k40") return gpu::GpuProfile::k40();
  if (name == "k20x") return gpu::GpuProfile::k20x();
  if (name == "p40") return gpu::GpuProfile::p40();
  if (name == "p100") return gpu::GpuProfile::p100();
  if (name == "v100") return gpu::GpuProfile::v100();
  throw std::invalid_argument("unknown GPU profile: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <reads.fastq> <contigs.fasta> "
                 "[--min-overlap=N] [--host-mem-mb=N] [--device-mem-mb=N] "
                 "[--gpu=name] [--singletons] [--verify] [--sync-sort] "
                 "[--gfa=graph.gfa] [--min-contig=N] [--work-dir=DIR] "
                 "[--resume] [--fault-spec=SPEC] [--nodes=N] "
                 "[--reduce=token|speculative] "
                 "[--graph=greedy|reduced] "
                 "[--trace-out=trace.json] [--metrics-out=metrics.json] "
                 "[--profile-out=profile.json] "
                 "[--log-level=debug|info|warn|error|off] "
                 "[--kernel-backend=simulated|scalar|avx2|host] "
                 "[--dump-kernels=DIR] [--dump-limit=N] [--dump-force]\n",
                 argv[0]);
    return 2;
  }

  core::AssemblyConfig config;
  config.machine.name = "custom";
  std::unique_ptr<io::FaultInjector> injector;
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;
  unsigned nodes = 0;  // 0 = single-node pipeline; N >= 1 = cluster
  dist::ReduceStrategy reduce = dist::ReduceStrategy::kLengthToken;
  std::string dump_dir;
  std::size_t dump_limit = 32;  // records per kernel; bounds dump size
  bool dump_force = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--min-overlap=", 0) == 0) {
      config.min_overlap = static_cast<unsigned>(std::stoul(arg.substr(14)));
    } else if (arg.rfind("--host-mem-mb=", 0) == 0) {
      config.machine.host_memory_bytes = std::stoull(arg.substr(14)) << 20;
    } else if (arg.rfind("--device-mem-mb=", 0) == 0) {
      config.machine.device_memory_bytes =
          std::stoull(arg.substr(16)) << 20;
    } else if (arg.rfind("--gpu=", 0) == 0) {
      config.machine.gpu_profile = profile_by_name(arg.substr(6));
    } else if (arg == "--singletons") {
      config.include_singletons = true;
    } else if (arg == "--verify") {
      config.verify_overlaps = true;
    } else if (arg == "--sync-sort") {
      config.streamed_sort = false;  // serial reference sort path
    } else if (arg.rfind("--gfa=", 0) == 0) {
      config.gfa_output = arg.substr(6);
    } else if (arg.rfind("--min-contig=", 0) == 0) {
      config.min_contig_length =
          static_cast<std::uint32_t>(std::stoul(arg.substr(13)));
    } else if (arg.rfind("--work-dir=", 0) == 0) {
      // Persistent workspace: intermediates land here instead of a temp dir
      // and the run writes a checkpoint manifest (enables --resume).
      config.work_dir = arg.substr(11);
    } else if (arg == "--resume") {
      config.resume = true;
    } else if (arg.rfind("--nodes=", 0) == 0) {
      nodes = static_cast<unsigned>(std::stoul(arg.substr(8)));
      if (nodes == 0) {
        std::fprintf(stderr, "--nodes needs at least 1 node\n");
        return 2;
      }
    } else if (arg.rfind("--reduce=", 0) == 0) {
      const std::string name = arg.substr(9);
      if (name == "token") {
        reduce = dist::ReduceStrategy::kLengthToken;
      } else if (name == "speculative") {
        reduce = dist::ReduceStrategy::kSpeculative;
      } else {
        std::fprintf(stderr,
                     "--reduce wants token or speculative, not %s\n",
                     name.c_str());
        return 2;
      }
    } else if (arg.rfind("--graph=", 0) == 0) {
      const std::string name = arg.substr(8);
      if (name == "greedy") {
        config.graph = core::GraphMode::kGreedy;
      } else if (name == "reduced") {
        config.graph = core::GraphMode::kReduced;
      } else {
        std::fprintf(stderr, "--graph wants greedy or reduced, not %s\n",
                     name.c_str());
        return 2;
      }
    } else if (arg.rfind("--kernel-backend=", 0) == 0) {
      // "simulated" (default), "scalar", "avx2", or "host"/"auto" (fastest
      // available host path). Contigs are byte-identical in every case.
      config.kernel_backend = arg.substr(17);
    } else if (arg.rfind("--dump-kernels=", 0) == 0) {
      // Capture hot-kernel inputs/outputs into DIR for kernel_replay.
      dump_dir = arg.substr(15);
    } else if (arg.rfind("--dump-limit=", 0) == 0) {
      dump_limit = std::stoull(arg.substr(13));
    } else if (arg == "--dump-force") {
      dump_force = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      // Critical-path report over every phase of the run.
      profile_out = arg.substr(14);
    } else if (arg.rfind("--log-level=", 0) == 0) {
      const auto level = util::parse_log_level(arg.substr(12));
      if (!level) {
        std::fprintf(stderr,
                     "--log-level wants debug, info, warn, error or off, "
                     "not %s\n",
                     arg.substr(12).c_str());
        return 2;
      }
      util::set_log_level(*level);
    } else if (arg.rfind("--fault-spec=", 0) == 0) {
      // e.g. --fault-spec='seed=7;write:nth=30,match=.run' to kill the run
      // mid-sort, or rate/transient policies to exercise the retry layer.
      try {
        injector = io::FaultInjector::parse(arg.substr(13));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "bad --fault-spec: %s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  if (config.resume && config.work_dir.empty()) {
    std::fprintf(stderr, "--resume requires --work-dir\n");
    return 2;
  }
  if (nodes > 0 && (config.min_contig_length > 0 ||
                    !config.gfa_output.empty() || config.verify_overlaps)) {
    std::fprintf(stderr,
                 "--nodes runs the simulated cluster, which has no "
                 "--min-contig, --gfa or --verify\n");
    return 2;
  }

  io::FaultInjector::ScopedInstall install(injector.get());
  // A multi-node run writes the profiler's merged trace instead, so it
  // records no tracer events.
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::Tracer::ScopedInstall> tracer_install;
  if (!trace_out.empty() && nodes <= 1) {
    tracer = std::make_unique<obs::Tracer>();
    tracer->set_disk_bandwidth(config.machine.disk_bandwidth_bytes_per_sec);
    tracer_install = std::make_unique<obs::Tracer::ScopedInstall>(tracer.get());
  }
  // The causal profiler records the run's span graph: needed for the
  // critical-path report and for the merged multi-node Chrome trace (one
  // process row per node). Single-node traces keep the plain Tracer format.
  std::unique_ptr<obs::Profiler> profiler;
  std::unique_ptr<obs::Profiler::ScopedInstall> profiler_install;
  if (!profile_out.empty() || (nodes > 1 && !trace_out.empty())) {
    profiler = std::make_unique<obs::Profiler>();
    profiler_install =
        std::make_unique<obs::Profiler::ScopedInstall>(profiler.get());
  }
  std::unique_ptr<kernel::CaptureSession> capture;
  std::unique_ptr<kernel::CaptureSession::ScopedInstall> capture_install;
  if (!dump_dir.empty()) {
    try {
      capture = std::make_unique<kernel::CaptureSession>(dump_dir, dump_limit,
                                                         dump_force);
    } catch (const std::exception& e) {
      // Refusing to clobber an existing golden dump is the common failure;
      // point at --dump-force explicitly.
      std::fprintf(stderr, "--dump-kernels: %s (use --dump-force)\n",
                   e.what());
      return 2;
    }
    capture_install =
        std::make_unique<kernel::CaptureSession::ScopedInstall>(capture.get());
  }
  try {
    if (nodes > 0) {
      // Simulated cluster path: same inputs, same outputs, N modeled
      // nodes. --sync-sort disables the streamed overlap model cluster-wide
      // and --fault-spec accepts node-scoped am:/node: policies.
      const kernel::ScopedBackend kernel_scope(
          kernel::resolve_backend(config.kernel_backend));
      dist::ClusterConfig cluster;
      static_cast<core::RunConfig&>(cluster) = config;
      cluster.node_count = nodes;
      cluster.reduce_strategy = reduce;
      cluster.streamed = config.streamed_sort;
      const dist::DistributedResult result =
          dist::run_distributed(argv[1], argv[2], cluster);
      if (!trace_out.empty()) {
        if (nodes > 1) {
          profiler->write_merged_trace(trace_out);
          std::printf("wrote merged trace %s (%u node rows)\n",
                      trace_out.c_str(), nodes);
        } else {
          tracer->write_chrome_trace(trace_out);
          std::printf("wrote trace %s\n", trace_out.c_str());
        }
      }
      if (profiler != nullptr && !profile_out.empty()) {
        profiler->write_report(profile_out);
        std::printf("wrote profile %s\n", profile_out.c_str());
      }
      if (!metrics_out.empty()) {
        obs::MetricsRegistry::global().write_json(metrics_out);
        std::printf("wrote metrics %s\n", metrics_out.c_str());
      }
      std::printf("%s\n", result.stats.to_table().c_str());
      if (result.phases_resumed > 0) {
        std::printf("resumed:        %u phase(s) restored from checkpoint\n",
                    result.phases_resumed);
      }
      std::printf("nodes:          %u (%llu shuffle bytes on the wire)\n",
                  nodes,
                  static_cast<unsigned long long>(result.shuffle_bytes));
      if (result.reduce_rounds > 0) {
        std::printf(
            "spec reduce:    %u superstep(s), %u round(s), %llu "
            "conflict(s)\n",
            result.reduce_supersteps, result.reduce_rounds,
            static_cast<unsigned long long>(result.reduce_conflicts));
      }
      std::printf("reads:          %u\n", result.read_count);
      std::printf("candidates:     %llu\ngraph edges:    %llu\n",
                  static_cast<unsigned long long>(result.candidate_edges),
                  static_cast<unsigned long long>(result.accepted_edges));
      if (result.full_edges > 0) {
        std::printf(
            "reduction:      %llu full edges, %llu transitive removed\n",
            static_cast<unsigned long long>(result.full_edges),
            static_cast<unsigned long long>(result.transitive_removed));
      }
      std::printf("contigs:        %llu, total %llu bases, N50 %llu\n",
                  static_cast<unsigned long long>(result.contigs.count),
                  static_cast<unsigned long long>(result.contigs.total_bases),
                  static_cast<unsigned long long>(result.contigs.n50));
      std::printf("wrote %s\n", argv[2]);
      if (capture != nullptr) {
        capture->close();
        std::printf("wrote kernel dumps (%llu fingerprint, %llu match, %llu "
                    "sort records) to %s\n",
                    static_cast<unsigned long long>(
                        capture->captured(kernel::KernelId::kFingerprint)),
                    static_cast<unsigned long long>(
                        capture->captured(kernel::KernelId::kMatchBounds)),
                    static_cast<unsigned long long>(
                        capture->captured(kernel::KernelId::kSortPairs)),
                    dump_dir.c_str());
      }
      return 0;
    }
    core::Assembler assembler(config);
    const core::AssemblyResult result = assembler.run(argv[1], argv[2]);
    if (tracer != nullptr) {
      tracer->write_chrome_trace(trace_out);
      std::printf("wrote trace %s\n", trace_out.c_str());
    }
    if (profiler != nullptr && !profile_out.empty()) {
      profiler->write_report(profile_out);
      std::printf("wrote profile %s\n", profile_out.c_str());
    }
    if (!metrics_out.empty()) {
      obs::MetricsRegistry::global().write_json(metrics_out);
      std::printf("wrote metrics %s\n", metrics_out.c_str());
    }
    std::printf("%s\n", result.stats.to_table().c_str());
    if (result.phases_resumed > 0) {
      std::printf("resumed:        %u phase(s) restored from checkpoint\n",
                  result.phases_resumed);
    }
    if (injector != nullptr) {
      std::printf("faults:         %llu injected, %llu retries, %llu fatal\n",
                  static_cast<unsigned long long>(injector->injected()),
                  static_cast<unsigned long long>(injector->retried()),
                  static_cast<unsigned long long>(injector->fatal()));
    }
    std::printf("reads:          %u (%llu bases)\n", result.read_count,
                static_cast<unsigned long long>(result.total_bases));
    std::printf("candidates:     %llu",
                static_cast<unsigned long long>(result.candidate_edges));
    if (config.verify_overlaps) {
      std::printf("  (false positives: %llu)",
                  static_cast<unsigned long long>(result.false_positives));
    }
    std::printf("\ngraph edges:    %llu\n",
                static_cast<unsigned long long>(result.graph_edges));
    if (result.full_edges > 0) {
      std::printf(
          "reduction:      %llu full edges, %llu transitive removed\n",
          static_cast<unsigned long long>(result.full_edges),
          static_cast<unsigned long long>(result.transitive_removed));
    }
    std::printf("contigs:        %llu, total %llu bases, N50 %llu\n",
                static_cast<unsigned long long>(result.contigs.count),
                static_cast<unsigned long long>(result.contigs.total_bases),
                static_cast<unsigned long long>(result.contigs.n50));
    std::printf("wrote %s\n", argv[2]);
    if (capture != nullptr) {
      capture->close();
      std::printf("wrote kernel dumps (%llu fingerprint, %llu match, %llu "
                  "sort records) to %s\n",
                  static_cast<unsigned long long>(
                      capture->captured(kernel::KernelId::kFingerprint)),
                  static_cast<unsigned long long>(
                      capture->captured(kernel::KernelId::kMatchBounds)),
                  static_cast<unsigned long long>(
                      capture->captured(kernel::KernelId::kSortPairs)),
                  dump_dir.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "assembly failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
