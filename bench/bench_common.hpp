// Shared helpers for the table/figure-regeneration benches.
//
// Every bench accepts:
//   --scale=<f>     divide the paper's datasets and memory budgets by f
//                   (default 16384 for quick runs; 4096 reproduces the
//                   DESIGN.md reference geometry; pass counts are identical
//                   at any scale because data and memory scale together)
//   --dataset=<name> restrict to one dataset
//   --quick          even smaller (scale 65536), for smoke runs
#pragma once

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seq/datasets.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace lasagna::bench {

struct BenchArgs {
  double scale = 16384.0;
  std::string dataset;  // empty = all
  bool quick = false;
  std::string trace_out;    // empty = tracing disabled
  std::string metrics_out;  // empty = no metrics dump

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--scale=", 0) == 0) {
        args.scale = std::stod(arg.substr(8));
      } else if (arg.rfind("--dataset=", 0) == 0) {
        args.dataset = arg.substr(10);
      } else if (arg == "--quick") {
        args.quick = true;
        args.scale = 65536.0;
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        args.trace_out = arg.substr(12);
      } else if (arg.rfind("--metrics-out=", 0) == 0) {
        args.metrics_out = arg.substr(14);
      } else if (arg.rfind("--log-level=", 0) == 0) {
        const auto level = util::parse_log_level(arg.substr(12));
        if (!level) {
          std::fprintf(stderr, "bad --log-level %s\n",
                       arg.substr(12).c_str());
          std::exit(2);
        }
        util::set_log_level(*level);
      } else if (arg == "--help") {
        std::printf(
            "options: --scale=<f> (default 16384), --dataset=<name>, "
            "--quick, --trace-out=<file>, --metrics-out=<file>, "
            "--log-level=debug|info|warn|error|off\n");
        std::exit(0);
      }
    }
    return args;
  }

  [[nodiscard]] std::vector<seq::DatasetSpec> datasets() const {
    if (!dataset.empty()) {
      return {seq::paper_dataset(dataset, scale)};
    }
    return seq::paper_datasets(scale);
  }
};

/// Installs a tracer for the bench's lifetime when --trace-out was given
/// and writes the trace/metrics files on destruction. Tracing stays
/// completely off (a null active() pointer) when the flags are absent, so
/// default bench runs measure the untraced configuration.
class ScopedObservability {
 public:
  ScopedObservability(const BenchArgs& args, double disk_bandwidth)
      : trace_out_(args.trace_out), metrics_out_(args.metrics_out) {
    if (!trace_out_.empty()) {
      tracer_ = std::make_unique<obs::Tracer>();
      tracer_->set_disk_bandwidth(disk_bandwidth);
      install_ = std::make_unique<obs::Tracer::ScopedInstall>(tracer_.get());
    }
  }

  ~ScopedObservability() {
    install_.reset();
    if (tracer_ != nullptr) {
      tracer_->write_chrome_trace(trace_out_);
      std::printf("wrote trace %s\n", trace_out_.c_str());
    }
    if (!metrics_out_.empty()) {
      obs::MetricsRegistry::global().write_json(metrics_out_);
      std::printf("wrote metrics %s\n", metrics_out_.c_str());
    }
  }

  ScopedObservability(const ScopedObservability&) = delete;
  ScopedObservability& operator=(const ScopedObservability&) = delete;

 private:
  std::string trace_out_;
  std::string metrics_out_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::Tracer::ScopedInstall> install_;
};

/// Per-sweep-cell metrics scope: zeroes every counter/gauge/histogram in the
/// global registry on entry, so numbers a cell reports (or dumps with
/// --metrics-out inside the cell) cover that cell only, not the whole sweep.
/// The registry's metric objects stay alive — cached references held by hot
/// paths remain valid across cells.
class ScopedMetricsCell {
 public:
  ScopedMetricsCell() { obs::MetricsRegistry::global().reset_values(); }
  ScopedMetricsCell(const ScopedMetricsCell&) = delete;
  ScopedMetricsCell& operator=(const ScopedMetricsCell&) = delete;
};

/// Datasets are cached next to the build tree so every bench reuses them.
inline std::filesystem::path dataset_cache_dir() {
  return std::filesystem::temp_directory_path() / "lasagna-bench-data";
}

inline std::filesystem::path materialize(const seq::DatasetSpec& spec) {
  return seq::materialize_dataset(spec, dataset_cache_dir());
}

/// Fixed-width cell helpers for paper-style tables.
inline void print_row(const std::string& label,
                      const std::vector<std::string>& cells) {
  std::printf("%-10s", label.c_str());
  for (const auto& c : cells) std::printf(" %14s", c.c_str());
  std::printf("\n");
}

inline std::string cell_time(double seconds) {
  return util::format_duration(seconds);
}

inline std::string cell_bytes(std::uint64_t bytes) {
  return util::format_bytes(bytes);
}

/// FNV-1a over a file's bytes: equal digests mean identical outputs.
inline std::uint64_t file_hash(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = util::fnv::kOffset;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    h = util::fnv::fold_bytes(h, buf, static_cast<std::size_t>(in.gcount()));
  }
  return h;
}

}  // namespace lasagna::bench
