// Multi-backend kernel benchmark: wall-clock vs modeled throughput for the
// three hot kernels (fingerprint generation, match bounds, radix sort) on
// every available backend. This is the harness's headline number — the
// simulated backend's "wall" column is the cost of simulation (its kernels
// run the fastest host kernel in place, match bounds split over the pool),
// its "modeled" column is the paper-world device time; the scalar and AVX2
// columns are real host wall-clock, measured on identical inputs that
// every backend must reduce to byte-identical outputs (checked here too).
//
// Writes BENCH_kernels.json and enforces on exit code:
//   - all backends byte-agree on every kernel's output
//   - AVX2 fingerprint throughput >= 1.5x scalar (the vector path must
//     actually pay for itself; skipped with a note when the host lacks
//     AVX2 or the build disabled it)
//
//   $ ./bench/bench_kernels [--quick] [--json=BENCH_kernels.json]
//         [--log-level=debug|info|warn|error|off]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fingerprint/kernels.hpp"
#include "gpu/device.hpp"
#include "kernel/backend.hpp"
#include "kernel/cpu_features.hpp"
#include "seq/genome.hpp"

using namespace lasagna;
using gpu::Key128;

namespace {

struct Workload {
  // fingerprint
  unsigned read_count = 0;
  unsigned read_length = 0;
  std::vector<std::uint8_t> codes;
  std::vector<std::uint16_t> lengths;
  fingerprint::FingerprintConfig cfg;
  std::vector<std::uint64_t> pow_a;
  std::vector<std::uint64_t> pow_b;
  // match bounds
  std::vector<Key128> needles;
  std::vector<Key128> haystack;
  // sort
  std::vector<Key128> keys;
  std::vector<std::uint64_t> values;
};

Workload make_workload(bool quick) {
  Workload w;
  w.read_count = quick ? 2048 : 16384;
  w.read_length = 100;
  w.cfg = fingerprint::FingerprintConfig::standard();
  const fingerprint::PlaceTable places(w.cfg, w.read_length + 1);
  w.pow_a.assign(places.primary_table().begin(), places.primary_table().end());
  w.pow_b.assign(places.secondary_table().begin(),
                 places.secondary_table().end());

  std::mt19937_64 rng(20260808);
  w.codes.resize(static_cast<std::size_t>(w.read_count) * w.read_length);
  for (auto& c : w.codes) c = static_cast<std::uint8_t>(rng() & 3);
  // Ragged tail: a few short reads so the benchmark covers masked lanes.
  w.lengths.assign(w.read_count, static_cast<std::uint16_t>(w.read_length));
  for (unsigned r = 0; r < w.read_count; r += 97) {
    w.lengths[r] = static_cast<std::uint16_t>(1 + rng() % w.read_length);
  }

  const std::size_t n = quick ? (1u << 18) : (1u << 21);
  w.haystack.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Duplicate-dense keys, the reduce phase's shape.
    w.haystack.push_back(Key128{rng() % (n / 4), rng() % 3});
  }
  std::sort(w.haystack.begin(), w.haystack.end());
  w.needles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.needles.push_back(i % 2 == 0 ? w.haystack[rng() % n]
                                   : Key128{rng() % (n / 3), rng() % 3});
  }

  w.keys.reserve(n);
  w.values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.keys.push_back(Key128{rng(), rng()});
    w.values.push_back(i);
  }
  return w;
}

struct Row {
  std::string backend;
  std::string kernel;
  std::uint64_t elements = 0;
  std::uint64_t bytes = 0;
  double wall_seconds = 0;
  double modeled_seconds = 0;
  [[nodiscard]] double elements_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(elements) / wall_seconds : 0;
  }
  [[nodiscard]] double gigabytes_per_second() const {
    return wall_seconds > 0
               ? static_cast<double>(bytes) / wall_seconds / 1e9
               : 0;
  }
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Run `body` `iters` times, returning total wall seconds.
template <typename F>
double timed(unsigned iters, F&& body) {
  const double t0 = now_seconds();
  for (unsigned i = 0; i < iters; ++i) body();
  return now_seconds() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_out = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_out = arg.substr(7);
    } else if (arg.rfind("--log-level=", 0) == 0) {
      const auto level = util::parse_log_level(arg.substr(12));
      if (!level) {
        std::fprintf(stderr, "bad --log-level %s\n", arg.substr(12).c_str());
        return 2;
      }
      util::set_log_level(*level);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  const kernel::CpuFeatures cpu = kernel::cpu_features();
  std::printf("bench_kernels: cpu avx2=%s bmi2=%s%s\n",
              cpu.avx2 ? "yes" : "no", cpu.bmi2 ? "yes" : "no",
              quick ? " (quick)" : "");

  const Workload w = make_workload(quick);
  const unsigned iters = quick ? 2 : 4;
  const std::size_t total =
      static_cast<std::size_t>(w.read_count) * w.read_length;

  std::vector<kernel::Backend*> backends;
  for (kernel::Backend* b : kernel::all_backends()) {
    if (b->available()) backends.push_back(b);
  }

  std::vector<Row> rows;
  // Golden outputs from the first (simulated) backend; every later backend
  // must byte-match them.
  std::vector<Key128> golden_prefix;
  std::vector<Key128> golden_suffix;
  std::vector<std::uint32_t> golden_lower;
  std::vector<std::uint32_t> golden_upper;
  std::vector<Key128> golden_keys;
  std::vector<std::uint64_t> golden_values;
  bool outputs_agree = true;

  for (kernel::Backend* backend : backends) {
    // One sweep cell per backend: zero the metric values so a backend's
    // histograms/counters never bleed into the next backend's cell.
    bench::ScopedMetricsCell metrics_cell;
    gpu::Device device(gpu::GpuProfile::k40(), 512ull << 20);
    kernel::DeviceContext ctx{&device, nullptr, false};
    const std::string name(backend->name());

    // -- fingerprint --------------------------------------------------------
    std::vector<Key128> prefix(total);
    std::vector<Key128> suffix(total);
    kernel::FingerprintJob job;
    job.count = w.read_count;
    job.stride = w.read_length;
    job.codes = w.codes;
    job.lengths = w.lengths;
    job.primary = w.cfg.primary;
    job.secondary = w.cfg.secondary;
    job.pow_primary = w.pow_a;
    job.pow_secondary = w.pow_b;
    job.prefix = prefix.data();
    job.suffix = suffix.data();
    Row fp{name, "fingerprint"};
    fp.elements = 2ull * total;  // prefix + suffix lanes
    fp.bytes = total * (1 + 2 * sizeof(Key128));
    double modeled0 = device.modeled_seconds();
    fp.wall_seconds = timed(iters, [&] {
      std::fill(prefix.begin(), prefix.end(), Key128{});
      std::fill(suffix.begin(), suffix.end(), Key128{});
      backend->fingerprint(job, &ctx);
    });
    fp.modeled_seconds = (device.modeled_seconds() - modeled0) / iters;
    fp.wall_seconds /= iters;
    rows.push_back(fp);

    // -- match bounds -------------------------------------------------------
    std::vector<std::uint32_t> lower(w.needles.size());
    std::vector<std::uint32_t> upper(w.needles.size());
    Row mb{name, "match_bounds"};
    mb.elements = w.needles.size();
    mb.bytes = (w.needles.size() + w.haystack.size()) * sizeof(Key128) +
               2 * w.needles.size() * sizeof(std::uint32_t);
    modeled0 = device.modeled_seconds();
    mb.wall_seconds = timed(iters, [&] {
      backend->match_bounds(w.needles, w.haystack, lower, upper, &ctx);
    });
    mb.modeled_seconds = (device.modeled_seconds() - modeled0) / iters;
    mb.wall_seconds /= iters;
    rows.push_back(mb);

    // -- sort pairs ---------------------------------------------------------
    std::vector<Key128> keys;
    std::vector<std::uint64_t> values;
    Row sp{name, "sort_pairs"};
    sp.elements = w.keys.size();
    sp.bytes = w.keys.size() * (sizeof(Key128) + sizeof(std::uint64_t));
    modeled0 = device.modeled_seconds();
    sp.wall_seconds = timed(iters, [&] {
      keys = w.keys;
      values = w.values;
      backend->sort_pairs(keys, values, &ctx);
    });
    sp.modeled_seconds = (device.modeled_seconds() - modeled0) / iters;
    sp.wall_seconds /= iters;
    rows.push_back(sp);

    if (backend == backends.front()) {
      golden_prefix = prefix;
      golden_suffix = suffix;
      golden_lower = lower;
      golden_upper = upper;
      golden_keys = keys;
      golden_values = values;
    } else {
      const bool same = prefix == golden_prefix && suffix == golden_suffix &&
                        lower == golden_lower && upper == golden_upper &&
                        keys == golden_keys && values == golden_values;
      if (!same) {
        std::fprintf(stderr, "FAIL: %s output differs from %.*s\n",
                     name.c_str(),
                     static_cast<int>(backends.front()->name().size()),
                     backends.front()->name().data());
        outputs_agree = false;
      }
    }
  }

  std::printf("%-10s %-12s %14s %10s %12s %12s\n", "backend", "kernel",
              "elements/s", "GB/s", "wall s", "modeled s");
  for (const auto& r : rows) {
    std::printf("%-10s %-12s %14.3e %10.3f %12.6f %12.6f\n",
                r.backend.c_str(), r.kernel.c_str(), r.elements_per_second(),
                r.gigabytes_per_second(), r.wall_seconds, r.modeled_seconds);
  }

  {
    std::ofstream out(json_out);
    out << "{\n  \"quick\": " << (quick ? "true" : "false")
        << ",\n  \"cpu\": {\"avx2\": " << (cpu.avx2 ? "true" : "false")
        << ", \"bmi2\": " << (cpu.bmi2 ? "true" : "false")
        << "},\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      out << "    {\"backend\": \"" << r.backend << "\", \"kernel\": \""
          << r.kernel << "\", \"elements\": " << r.elements
          << ", \"bytes\": " << r.bytes
          << ", \"wall_seconds\": " << r.wall_seconds
          << ", \"modeled_seconds\": " << r.modeled_seconds
          << ", \"elements_per_second\": " << r.elements_per_second()
          << ", \"gigabytes_per_second\": " << r.gigabytes_per_second()
          << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_out.c_str());
  }

  if (!outputs_agree) return 1;

  // Gate: the AVX2 fingerprint path must beat scalar by >= 1.5x.
  if (!kernel::avx2_backend().available()) {
    std::printf("note: AVX2 backend unavailable; speedup gate skipped\n");
    return 0;
  }
  auto rate = [&](const std::string& backend, const char* kern) {
    for (const auto& r : rows) {
      if (r.backend == backend && r.kernel == kern) {
        return r.elements_per_second();
      }
    }
    return 0.0;
  };
  const double speedup = rate("avx2", "fingerprint") /
                         std::max(rate("scalar", "fingerprint"), 1e-12);
  std::printf("avx2 fingerprint speedup vs scalar: %.2fx (gate: >= 1.50x)\n",
              speedup);
  if (speedup < 1.5) {
    std::fprintf(stderr, "FAIL: AVX2 fingerprint speedup below gate\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
