// Ablation (paper section III-A motivation): block-per-read Hillis-Steele
// fingerprint kernel vs the naive thread-per-read rolling hash, plus the
// kernel-backend comparison (simulated device vs scalar host vs AVX2).
// Everything routes through the kernel backend registry — the same
// dispatch the pipeline uses — and google-benchmark measures *wall clock*.
// The two strategies are cost models of the simulated device: both compute
// with the fastest host kernel, so their wall times match, and they differ
// in the modeled device time (the `modeled_us` counter), where the paper's
// "memory throttling" penalty shows.
#include <benchmark/benchmark.h>

#include "fingerprint/kernels.hpp"
#include "kernel/backend.hpp"
#include "seq/genome.hpp"

using namespace lasagna;

namespace {

std::vector<std::string> make_reads(std::size_t count, unsigned length) {
  std::vector<std::string> reads;
  reads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    reads.push_back(seq::random_genome(length, i * 17 + 5));
  }
  return reads;
}

/// Wall-clock one configuration of the batch fingerprint dispatch: a
/// kernel backend (from the registry) x a device kernel strategy (the
/// strategy only matters on the simulated backend).
void run_config(benchmark::State& state, kernel::Backend& backend,
                fingerprint::KernelStrategy strategy) {
  if (!backend.available()) {
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  const auto reads =
      make_reads(static_cast<std::size_t>(state.range(0)),
                 static_cast<unsigned>(state.range(1)));
  const fingerprint::PlaceTable places(
      fingerprint::FingerprintConfig::standard(), 512);
  kernel::ScopedBackend scope(backend);

  gpu::Device device(gpu::GpuProfile::k40(), 256ull << 20);
  const double modeled0 = device.modeled_seconds();
  std::uint64_t iters = 0;
  for (auto _ : state) {
    const auto fps =
        fingerprint::compute_batch_fingerprints(device, reads, places,
                                                strategy);
    benchmark::DoNotOptimize(fps.prefix.data());
    ++iters;
  }
  state.counters["modeled_us"] =
      iters > 0 ? (device.modeled_seconds() - modeled0) * 1e6 /
                      static_cast<double>(iters)
                : 0.0;
  const double bases = static_cast<double>(reads.size()) *
                       static_cast<double>(state.range(1));
  state.counters["bases"] = bases;
  state.counters["bases_per_sec"] =
      benchmark::Counter(bases, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_BlockPerRead(benchmark::State& state) {
  run_config(state, kernel::simulated_backend(),
             fingerprint::KernelStrategy::kBlockPerRead);
}

void BM_ThreadPerRead(benchmark::State& state) {
  run_config(state, kernel::simulated_backend(),
             fingerprint::KernelStrategy::kThreadPerRead);
}

void BM_HostScalar(benchmark::State& state) {
  run_config(state, kernel::scalar_backend(),
             fingerprint::KernelStrategy::kBlockPerRead);
}

void BM_HostAvx2(benchmark::State& state) {
  run_config(state, kernel::avx2_backend(),
             fingerprint::KernelStrategy::kBlockPerRead);
}

}  // namespace

BENCHMARK(BM_BlockPerRead)
    ->Args({512, 100})
    ->Args({512, 150})
    ->Args({2048, 100})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ThreadPerRead)
    ->Args({512, 100})
    ->Args({512, 150})
    ->Args({2048, 100})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HostScalar)
    ->Args({512, 100})
    ->Args({512, 150})
    ->Args({2048, 100})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HostAvx2)
    ->Args({512, 100})
    ->Args({512, 150})
    ->Args({2048, 100})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
