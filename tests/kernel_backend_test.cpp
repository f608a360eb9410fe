// The multi-backend kernel harness contract:
//  - every backend (simulated-GPU, scalar, AVX2 when the host has it)
//    produces byte-identical outputs for all three hot kernels, including
//    ragged read lengths, empty partitions and adversarial tie corpora;
//  - dump capture is deterministic (same seed -> byte-identical dump) and
//    replay byte-compares every backend against the golden capture;
//  - malformed or truncated dumps are rejected, and an existing dump is
//    never overwritten without force;
//  - the pipeline emits byte-identical contigs under every backend, and
//    reaches every kernel through the backend interface — the simulated
//    device included — while host backends leave the device untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <numeric>
#include <random>
#include <sstream>

#include "core/pipeline.hpp"
#include "dist/cluster.hpp"
#include "fingerprint/kernels.hpp"
#include "fingerprint/rabin_karp.hpp"
#include "gpu/device.hpp"
#include "io/tempdir.hpp"
#include "kernel/backend.hpp"
#include "kernel/cpu_features.hpp"
#include "kernel/dump.hpp"
#include "kernel/replay.hpp"
#include "obs/metrics.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"
#include "tie_corpus.hpp"

namespace lasagna {
namespace {

using gpu::Key128;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> ragged_reads(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> reads;
  const char* bases = "ACGT";
  // Mixed shapes: typical reads, a singleton base, an empty read, and
  // power-of-two +/- 1 lengths around the scan's doubling steps.
  for (const unsigned len : {100u, 1u, 0u, 63u, 64u, 65u, 37u, 128u, 7u}) {
    std::string r;
    for (unsigned i = 0; i < len; ++i) {
      r.push_back(bases[rng() & 3]);
    }
    reads.push_back(std::move(r));
  }
  return reads;
}

/// Fingerprints of `reads` computed through the dispatcher under `backend`.
fingerprint::BatchFingerprints run_fingerprints(
    kernel::Backend& backend, const std::vector<std::string>& reads,
    const fingerprint::FingerprintConfig& cfg) {
  gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
  fingerprint::PlaceTable places(cfg, 512);
  kernel::ScopedBackend scope(backend);
  return fingerprint::compute_batch_fingerprints(dev, reads, places);
}

/// The per-string Rabin-Karp reference in the batch layout: every read,
/// position and hash, and zero past each read's end (the canonical form).
fingerprint::BatchFingerprints reference_fingerprints(
    const std::vector<std::string>& reads,
    const fingerprint::FingerprintConfig& cfg) {
  fingerprint::BatchFingerprints want;
  for (const auto& r : reads) {
    want.stride = std::max(want.stride, static_cast<unsigned>(r.size()));
  }
  want.prefix.assign(reads.size() * want.stride, Key128{});
  want.suffix.assign(reads.size() * want.stride, Key128{});
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const auto pa = fingerprint::prefix_hashes(reads[r], cfg.primary);
    const auto pb = fingerprint::prefix_hashes(reads[r], cfg.secondary);
    const auto sa = fingerprint::suffix_hashes(reads[r], cfg.primary);
    const auto sb = fingerprint::suffix_hashes(reads[r], cfg.secondary);
    for (std::size_t i = 0; i < reads[r].size(); ++i) {
      want.prefix[r * want.stride + i] = Key128{pa[i], pb[i]};
      want.suffix[r * want.stride + i] = Key128{sa[i], sb[i]};
    }
  }
  return want;
}

std::vector<kernel::Backend*> host_backends_under_test() {
  std::vector<kernel::Backend*> backends = {&kernel::scalar_backend()};
  if (kernel::avx2_backend().available()) {
    backends.push_back(&kernel::avx2_backend());
  }
  return backends;
}

std::vector<kernel::Backend*> all_backends_under_test() {
  std::vector<kernel::Backend*> backends = {&kernel::simulated_backend()};
  for (kernel::Backend* b : host_backends_under_test()) backends.push_back(b);
  return backends;
}

/// Every backend's batch equals the per-string reference byte for byte.
void expect_fingerprints_match_reference(
    const std::vector<std::string>& reads,
    const fingerprint::FingerprintConfig& cfg) {
  const auto want = reference_fingerprints(reads, cfg);
  for (kernel::Backend* backend : all_backends_under_test()) {
    const auto got = run_fingerprints(*backend, reads, cfg);
    ASSERT_EQ(got.stride, want.stride) << backend->name();
    EXPECT_EQ(0, std::memcmp(got.prefix.data(), want.prefix.data(),
                             want.prefix.size() * sizeof(Key128)))
        << backend->name() << " prefix";
    EXPECT_EQ(0, std::memcmp(got.suffix.data(), want.suffix.data(),
                             want.suffix.size() * sizeof(Key128)))
        << backend->name() << " suffix";
  }
}

TEST(KernelBackend, FingerprintGoldenAcrossBackends) {
  // The simulated device computes with a host kernel, so the golden is the
  // independent per-string reference, not another backend.
  expect_fingerprints_match_reference(
      ragged_reads(42), fingerprint::FingerprintConfig::standard());
}

TEST(KernelBackend, FingerprintWeakModuliFallBackToScalar) {
  // Tiny moduli violate the AVX2 path's headroom preconditions; the job
  // must silently take the scalar path and still match the reference.
  expect_fingerprints_match_reference(
      ragged_reads(7), fingerprint::FingerprintConfig::weak(251, 257));
}

TEST(KernelBackend, SimulatedFingerprintChargesArePinned) {
  // One ragged batch per strategy on a fresh device: 6 reads at stride
  // 128, so 768 lanes and 7 doubling steps. Block-per-read charges 33
  // bytes and 7 x 4 ops per lane, thread-per-read 8 x 33 bytes and 4 ops:
  // the paper kernels' cost model, whichever host kernel computes the
  // values.
  std::vector<std::string> reads;
  for (const unsigned len : {0u, 1u, 63u, 64u, 65u, 128u}) {
    reads.push_back(seq::random_genome(len, len + 1));
  }
  const fingerprint::PlaceTable places(
      fingerprint::FingerprintConfig::standard(), 512);
  struct Pinned {
    fingerprint::KernelStrategy strategy;
    std::int64_t kernel_bytes;
    std::int64_t kernel_ops;
    double modeled_seconds;
  };
  const char* counters[] = {"gpu.kernel_bytes", "gpu.kernel_ops",
                            "gpu.transfer_bytes", "gpu.allocs",
                            "gpu.launches"};
  auto& registry = obs::MetricsRegistry::global();
  for (const Pinned& pin :
       {Pinned{fingerprint::KernelStrategy::kBlockPerRead, 25344, 21504,
               9.4173299999999998e-07},
        Pinned{fingerprint::KernelStrategy::kThreadPerRead, 202752, 3072,
               1.5504189999999999e-06}}) {
    gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
    std::vector<std::int64_t> before;
    for (const char* c : counters) before.push_back(registry.value(c));
    (void)fingerprint::compute_batch_fingerprints(dev, reads, places,
                                                  pin.strategy);
    std::vector<std::int64_t> delta;
    for (std::size_t i = 0; i < before.size(); ++i) {
      delta.push_back(registry.value(counters[i]) - before[i]);
    }
    // Codes and lengths up (768 + 12 bytes), both fingerprint arrays down
    // (2 x 768 x 16 bytes), four allocations, one launch.
    EXPECT_EQ(delta, (std::vector<std::int64_t>{pin.kernel_bytes,
                                                pin.kernel_ops, 25356, 4, 1}))
        << static_cast<int>(pin.strategy);
    EXPECT_EQ(dev.modeled_seconds(), pin.modeled_seconds)
        << static_cast<int>(pin.strategy);
  }
}

TEST(KernelBackend, SimulatedMatchAndSortChargesArePinned) {
  // Calls on one fresh device, default stream. A sort of 1,000 pairs holds
  // keys and values plus their double buffer (4 allocations, 48,000 bytes)
  // and moves both arrays up and down (48,000 bytes); its kernel charges
  // are the histogram pre-pass, one scatter pass per digit some keys
  // differ in, and a copy-back after an odd number of passes. The three
  // match calls use a 400-key haystack at match_window 512: the first
  // allocates the four buffers at 512 elements, the second fits them, the
  // third reallocates the needle and both bound buffers at 700.
  gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
  kernel::DeviceContext ctx{&dev, nullptr, false, 512};
  kernel::Backend& sim = kernel::simulated_backend();
  std::mt19937_64 rng(5);
  auto sort_keys = [&](auto&& key_of) {
    std::vector<Key128> keys(1000);
    std::vector<std::uint64_t> vals(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = key_of(i);
      vals[i] = i;
    }
    return [&sim, &ctx, keys, vals]() mutable {
      sim.sort_pairs(keys, vals, &ctx);
    };
  };
  std::vector<Key128> haystack(400);
  for (auto& k : haystack) k = Key128{rng() % 64, rng() % 4};
  std::sort(haystack.begin(), haystack.end());
  auto match = [&](std::size_t n) {
    std::vector<Key128> needles(n);
    for (auto& k : needles) k = Key128{rng() % 64, rng() % 4};
    return [&sim, &ctx, &haystack, needles] {
      std::vector<std::uint32_t> lower(needles.size());
      std::vector<std::uint32_t> upper(needles.size());
      sim.match_bounds(needles, haystack, lower, upper, &ctx);
    };
  };
  struct Step {
    const char* what;
    std::function<void()> call;
    std::vector<std::int64_t> deltas;
    double modeled_seconds;  ///< the device clock after the call
  };
  const std::vector<Step> steps = {
      {"sort, all keys equal",
       sort_keys([](std::size_t) { return Key128{7, 7}; }),
       {16000, 16000, 1, 48000, 4, 48000},
       1.6619050000000001e-06},
      {"sort, keys differ in byte 3",
       sort_keys([](std::size_t i) { return Key128{7, (i % 5) << 24}; }),
       {256000, 19000, 3, 48000, 4, 48000},
       4.1583329999999999e-06},
      {"sort, keys differ in bytes 0 and 9",
       sort_keys([](std::size_t i) {
         return Key128{(i % 3) << 8, i % 7};
       }),
       {400000, 20000, 3, 48000, 4, 48000},
       7.1551579999999998e-06},
      {"sort, random keys",
       sort_keys([&rng](std::size_t) { return Key128{rng(), rng()}; }),
       {3088000, 48000, 17, 48000, 4, 48000},
       1.9496422999999998e-05},
      {"match, 300 needles", match(300), {98400, 5400, 2, 13600, 4, 20480},
       2.0293565999999999e-05},
      {"match, 200 needles", match(200), {65600, 3600, 2, 11200, 0, 0},
       2.0896106000000001e-05},
      {"match, 700 needles", match(700),
       {229600, 12600, 2, 23200, 3, 16800},
       2.2471660000000001e-05},
  };
  const char* counters[] = {"gpu.kernel_bytes",   "gpu.kernel_ops",
                            "gpu.kernel_charges", "gpu.transfer_bytes",
                            "gpu.allocs",         "gpu.alloc_bytes"};
  auto& registry = obs::MetricsRegistry::global();
  for (const Step& step : steps) {
    std::vector<std::int64_t> before;
    for (const char* c : counters) before.push_back(registry.value(c));
    step.call();
    std::vector<std::int64_t> delta;
    for (std::size_t i = 0; i < before.size(); ++i) {
      delta.push_back(registry.value(counters[i]) - before[i]);
    }
    EXPECT_EQ(delta, step.deltas) << step.what;
    EXPECT_EQ(dev.modeled_seconds(), step.modeled_seconds)
        << step.what << " " << std::setprecision(17) << dev.modeled_seconds();
  }
}

TEST(KernelBackend, MatchBoundsAcrossBackends) {
  std::mt19937_64 rng(99);
  // Haystack with dense duplicate runs (the tie-heavy shape the reduce
  // phase produces for repeated fingerprints).
  std::vector<Key128> tied;
  for (unsigned v = 0; v < 200; ++v) {
    const Key128 k{rng() % 50, rng() % 3};
    const unsigned copies = 1 + static_cast<unsigned>(rng() % 4);
    for (unsigned c = 0; c < copies; ++c) tied.push_back(k);
  }
  std::sort(tied.begin(), tied.end());
  std::vector<Key128> tied_needles;
  for (unsigned i = 0; i < 333; ++i) {
    tied_needles.push_back(i % 3 == 0 ? tied[rng() % tied.size()]
                                      : Key128{rng() % 60, rng() % 3});
  }
  // A larger haystack of 301 values per word, mostly distinct keys.
  std::vector<Key128> spread(5000);
  for (auto& k : spread) k = Key128{rng() % 301, rng() % 301};
  std::sort(spread.begin(), spread.end());
  std::vector<Key128> spread_needles(1000);
  for (auto& k : spread_needles) k = Key128{rng() % 301, rng() % 301};

  gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
  kernel::DeviceContext ctx{&dev, nullptr, false};
  for (const auto& [needles, haystack] :
       {std::pair{tied_needles, tied}, std::pair{spread_needles, spread}}) {
    std::vector<std::uint32_t> want_lower(needles.size());
    std::vector<std::uint32_t> want_upper(needles.size());
    for (std::size_t i = 0; i < needles.size(); ++i) {
      want_lower[i] = static_cast<std::uint32_t>(
          std::lower_bound(haystack.begin(), haystack.end(), needles[i]) -
          haystack.begin());
      want_upper[i] = static_cast<std::uint32_t>(
          std::upper_bound(haystack.begin(), haystack.end(), needles[i]) -
          haystack.begin());
    }
    for (kernel::Backend* backend : all_backends_under_test()) {
      std::vector<std::uint32_t> lower(needles.size(), 123);
      std::vector<std::uint32_t> upper(needles.size(), 123);
      backend->match_bounds(needles, haystack, lower, upper, &ctx);
      EXPECT_EQ(lower, want_lower) << backend->name() << " " << haystack.size();
      EXPECT_EQ(upper, want_upper) << backend->name() << " " << haystack.size();
    }
  }

  for (kernel::Backend* backend : all_backends_under_test()) {
    // Empty haystack: all bounds are zero.
    std::vector<std::uint32_t> lo2(5, 77);
    std::vector<std::uint32_t> up2(5, 77);
    backend->match_bounds(std::span<const Key128>(tied_needles).first(5), {},
                          lo2, up2, &ctx);
    EXPECT_EQ(lo2, std::vector<std::uint32_t>(5, 0)) << backend->name();
    EXPECT_EQ(up2, std::vector<std::uint32_t>(5, 0)) << backend->name();

    // Empty needles: a no-op.
    backend->match_bounds({}, tied, {}, {}, &ctx);
  }
}

TEST(KernelBackend, SortPairsAcrossBackends) {
  // Random keys plus the adversarial equal-fingerprint clusters from the
  // tie corpus: stability is observable through the value payloads.
  std::mt19937_64 rng(1234);
  std::vector<Key128> keys;
  std::vector<std::uint64_t> vals;
  for (unsigned i = 0; i < 2000; ++i) {
    keys.push_back(Key128{rng() % 97, rng() % 7});
    vals.push_back(i);
  }
  const auto ties = lasagna::testing::make_tie_records(8, 5, 6, 77);
  for (const auto& rec : ties.sfx) {
    keys.push_back(rec.fp);
    vals.push_back(vals.size());
  }

  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return keys[a] < keys[b];
                   });
  std::vector<Key128> want_keys(keys.size());
  std::vector<std::uint64_t> want_vals(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    want_keys[i] = keys[order[i]];
    want_vals[i] = vals[order[i]];
  }

  gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
  kernel::DeviceContext ctx{&dev, nullptr, false};
  for (kernel::Backend* backend : all_backends_under_test()) {
    auto got_keys = keys;
    auto got_vals = vals;
    backend->sort_pairs(got_keys, got_vals, &ctx);
    EXPECT_EQ(got_keys, want_keys) << backend->name();
    EXPECT_EQ(got_vals, want_vals) << backend->name();

    // Degenerate sizes.
    std::vector<Key128> k1 = {Key128{5, 5}};
    std::vector<std::uint64_t> v1 = {9};
    backend->sort_pairs(k1, v1, &ctx);
    EXPECT_EQ(v1[0], 9u) << backend->name();
    std::vector<Key128> k0;
    std::vector<std::uint64_t> v0;
    backend->sort_pairs(k0, v0, &ctx);
  }
}

// ---- sort sweeps over every backend ----------------------------------------

/// `keys` with values 0..n-1 alongside, sorted by `backend`, equal the
/// std::stable_sort of the same pairs by key.
void expect_stable_sort(kernel::Backend& backend, std::vector<Key128> keys) {
  const std::size_t n = keys.size();
  std::vector<std::uint64_t> want_vals(n);
  std::iota(want_vals.begin(), want_vals.end(), 0u);
  std::stable_sort(want_vals.begin(), want_vals.end(),
                   [&keys](std::uint64_t a, std::uint64_t b) {
                     return keys[a] < keys[b];
                   });
  std::vector<Key128> want_keys(n);
  for (std::size_t i = 0; i < n; ++i) want_keys[i] = keys[want_vals[i]];

  gpu::Device dev(gpu::GpuProfile::k40(), 64ull << 20);
  kernel::DeviceContext ctx{&dev, nullptr, false};
  std::vector<std::uint64_t> vals(n);
  std::iota(vals.begin(), vals.end(), 0u);
  backend.sort_pairs(keys, vals, &ctx);
  // Compared whole, so a failure names the backend without printing
  // every key.
  EXPECT_TRUE(keys == want_keys) << backend.name() << " keys, n=" << n;
  EXPECT_TRUE(vals == want_vals) << backend.name() << " values, n=" << n;
}

enum class KeyDistribution {
  kUniform,
  kLowEntropy,     // few distinct values
  kSortedAlready,  // best case
  kReverseSorted,  // adversarial
  kHighBitsOnly,   // lo word constant -> many skipped radix passes
  kLowBitsOnly,    // hi word constant
};

struct SortCase {
  KeyDistribution dist;
  std::size_t n;
};

std::vector<Key128> generate(KeyDistribution dist, std::size_t n,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key128> keys(n);
  switch (dist) {
    case KeyDistribution::kUniform:
      for (auto& k : keys) k = Key128{rng(), rng()};
      break;
    case KeyDistribution::kLowEntropy:
      for (auto& k : keys) k = Key128{rng() % 3, rng() % 5};
      break;
    case KeyDistribution::kSortedAlready:
      for (std::size_t i = 0; i < n; ++i) keys[i] = Key128{0, i};
      break;
    case KeyDistribution::kReverseSorted:
      for (std::size_t i = 0; i < n; ++i) keys[i] = Key128{0, n - i};
      break;
    case KeyDistribution::kHighBitsOnly:
      for (auto& k : keys) k = Key128{rng(), 0xdeadbeef};
      break;
    case KeyDistribution::kLowBitsOnly:
      for (auto& k : keys) k = Key128{42, rng()};
      break;
  }
  return keys;
}

class SortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortSweep, SortedStableAndPermutation) {
  const auto [dist, n] = GetParam();
  for (kernel::Backend* backend : all_backends_under_test()) {
    expect_stable_sort(*backend, generate(dist, n, n * 31 + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, SortSweep,
    ::testing::Values(SortCase{KeyDistribution::kUniform, 10000},
                      SortCase{KeyDistribution::kLowEntropy, 10000},
                      SortCase{KeyDistribution::kSortedAlready, 5000},
                      SortCase{KeyDistribution::kReverseSorted, 5000},
                      SortCase{KeyDistribution::kHighBitsOnly, 8000},
                      SortCase{KeyDistribution::kLowBitsOnly, 8000},
                      SortCase{KeyDistribution::kUniform, 1},
                      SortCase{KeyDistribution::kUniform, 2},
                      SortCase{KeyDistribution::kLowEntropy, 3}),
    [](const auto& info) { return "case" + std::to_string(info.index); });

TEST(SortPairs, MatchesStdSortOnRandomKeys) {
  for (const std::size_t n : {0ull, 1ull, 2ull, 100ull, 4097ull, 50000ull}) {
    for (kernel::Backend* backend : all_backends_under_test()) {
      expect_stable_sort(*backend, generate(KeyDistribution::kUniform, n,
                                            n + 1));
    }
  }
}

TEST(SortPairs, StableForEqualKeys) {
  // A 16-value key space forces long runs of equal keys.
  std::mt19937_64 rng(7);
  std::vector<Key128> keys(20000);
  for (auto& k : keys) k = Key128{0, rng() % 16};
  for (kernel::Backend* backend : all_backends_under_test()) {
    expect_stable_sort(*backend, keys);
  }
}

TEST(SortPairs, RejectsMismatchedSizes) {
  // Both kernels that take parallel arrays check their sizes first.
  gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
  kernel::DeviceContext ctx{&dev, nullptr, false};
  std::vector<Key128> keys(4);
  std::vector<std::uint64_t> vals(3);
  std::vector<std::uint32_t> four(4);
  std::vector<std::uint32_t> three(3);
  for (kernel::Backend* backend : all_backends_under_test()) {
    EXPECT_THROW(backend->sort_pairs(keys, vals, &ctx), std::invalid_argument)
        << backend->name();
    EXPECT_THROW(backend->match_bounds(keys, keys, three, four, &ctx),
                 std::invalid_argument)
        << backend->name();
    EXPECT_THROW(backend->match_bounds(keys, keys, four, three, &ctx),
                 std::invalid_argument)
        << backend->name();
  }
}

TEST(KernelBackend, RegistryResolvesNamesAndFallsBack) {
  EXPECT_EQ(kernel::resolve_backend("").name(), "simulated");
  EXPECT_EQ(kernel::resolve_backend("simulated").name(), "simulated");
  EXPECT_EQ(kernel::resolve_backend("scalar").name(), "scalar");
  // "avx2" resolves to avx2 when available, otherwise falls back.
  const std::string_view avx2_pick = kernel::resolve_backend("avx2").name();
  if (kernel::avx2_backend().available()) {
    EXPECT_EQ(avx2_pick, "avx2");
    EXPECT_TRUE(kernel::cpu_features().avx2);
    EXPECT_EQ(kernel::resolve_backend("host").name(), "avx2");
  } else {
    EXPECT_EQ(avx2_pick, "scalar");
    EXPECT_EQ(kernel::resolve_backend("host").name(), "scalar");
  }
  EXPECT_THROW((void)kernel::resolve_backend("cuda"), std::invalid_argument);

  EXPECT_EQ(kernel::find_backend("scalar"), &kernel::scalar_backend());
  EXPECT_EQ(kernel::find_backend("nope"), nullptr);
  EXPECT_EQ(kernel::all_backends().size(), 3u);

  // Default active backend is the simulated device; ScopedBackend nests.
  EXPECT_EQ(kernel::active_backend().name(), "simulated");
  {
    kernel::ScopedBackend outer(kernel::scalar_backend());
    EXPECT_EQ(kernel::active_backend().name(), "scalar");
    {
      kernel::ScopedBackend inner(kernel::simulated_backend());
      EXPECT_EQ(kernel::active_backend().name(), "simulated");
    }
    EXPECT_EQ(kernel::active_backend().name(), "scalar");
  }
  EXPECT_EQ(kernel::active_backend().name(), "simulated");
}

// ---- dump / replay ---------------------------------------------------------

std::filesystem::path write_fastq(const io::ScopedTempDir& dir,
                                  std::uint64_t seed) {
  const std::string genome = seq::random_genome(4000, seed);
  seq::SequencingSpec spec;
  spec.read_length = 100;
  spec.coverage = 8.0;
  spec.seed = seed + 1;
  const auto path = dir.file("reads_" + std::to_string(seed) + ".fq");
  seq::simulate_to_fastq(genome, spec, path);
  return path;
}

core::AssemblyConfig small_config() {
  core::AssemblyConfig config;
  config.machine.host_memory_bytes = 1 << 20;
  config.machine.device_memory_bytes = 1 << 18;
  config.min_overlap = 60;
  return config;
}

/// Run the assembler over `fastq` capturing kernel dumps into `dump_dir`.
void capture_run(const std::filesystem::path& fastq,
                 const std::filesystem::path& dump_dir,
                 const std::filesystem::path& contigs,
                 const core::AssemblyConfig& config = small_config()) {
  kernel::CaptureSession session(dump_dir, 16, /*force=*/false);
  kernel::CaptureSession::ScopedInstall scoped(&session);
  core::Assembler assembler(config);
  (void)assembler.run(fastq, contigs);
}

TEST(KernelBackendDumpTest, CaptureIsDeterministicForAFixedSeed) {
  // Two runs on each backend capture the same bytes. With a 16 KiB device
  // a block spans several sort chunks, which host backends sort
  // concurrently: their captures must still arrive in chunk order, the
  // simulated device's serial order.
  io::ScopedTempDir dir("lasagna-kdump");
  const auto fastq = write_fastq(dir, 11);
  std::vector<std::filesystem::path> dumps;
  for (const char* backend : {"simulated", "host"}) {
    core::AssemblyConfig config = small_config();
    config.kernel_backend = backend;
    config.machine.device_memory_bytes = 16 << 10;
    for (const char* run : {"a", "b"}) {
      const std::string name = std::string(backend) + "_" + run;
      dumps.push_back(dir.file("dump_" + name));
      capture_run(fastq, dumps.back(), dir.file(name + ".fa"), config);
    }
  }

  for (const kernel::KernelId id :
       {kernel::KernelId::kFingerprint, kernel::KernelId::kMatchBounds,
        kernel::KernelId::kSortPairs}) {
    const auto name = kernel::dump_filename(id);
    const std::string first = slurp(dumps.front() / name);
    ASSERT_FALSE(first.empty()) << name;
    for (const auto& dump : dumps) {
      // Compared as a bool: EXPECT_EQ would print both binary dumps.
      EXPECT_TRUE(slurp(dump / name) == first)
          << name << " of " << dump.filename() << " differs";
    }
  }
}

TEST(KernelBackendDumpTest, ReplayByteComparesEveryBackendAgainstGolden) {
  io::ScopedTempDir dir("lasagna-kreplay");
  const auto fastq = write_fastq(dir, 23);
  capture_run(fastq, dir.file("dump"), dir.file("out.fa"));

  for (kernel::Backend* backend : all_backends_under_test()) {
    const auto report = kernel::replay_dump(dir.file("dump"), *backend);
    EXPECT_TRUE(report.ok()) << backend->name();
    EXPECT_EQ(report.kernels.size(), 3u) << backend->name();
    for (const auto& k : report.kernels) {
      EXPECT_GT(k.records, 0u)
          << backend->name() << " " << kernel::kernel_name(k.kernel);
      EXPECT_EQ(k.mismatched, 0u)
          << backend->name() << " " << kernel::kernel_name(k.kernel);
      EXPECT_GT(k.elements, 0u);
      EXPECT_GE(k.wall_seconds, 0.0);
    }
  }

  // A backend that produced different bytes would be caught: corrupt one
  // golden output byte and replay must flag a mismatch.
  const auto path = dir.file("dump") / kernel::dump_filename(
                                           kernel::KernelId::kSortPairs);
  std::string bytes = slurp(path);
  kernel::DumpReader header_probe(path);  // locate the first record's output
  kernel::DumpRecord rec;
  ASSERT_TRUE(header_probe.next(rec));
  const std::size_t record_start = 24;  // header
  const std::size_t output_off = record_start + 8 * 8 + 4 * 8 +
                                 rec.input.size();
  bytes[output_off] = static_cast<char>(bytes[output_off] ^ 0x1);
  // Re-checksum so the corruption models a wrong golden, not a damaged
  // file.
  {
    std::vector<std::byte> out_blob(rec.output.size());
    std::memcpy(out_blob.data(), bytes.data() + output_off,
                out_blob.size());
    const std::uint64_t fnv = kernel::fnv1a_bytes(out_blob);
    std::memcpy(bytes.data() + record_start + 8 * 8 + 3 * 8, &fnv,
                sizeof(fnv));
    std::ofstream rewrite(path, std::ios::binary | std::ios::trunc);
    rewrite.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto tampered =
      kernel::replay_dump(dir.file("dump"), kernel::scalar_backend());
  bool saw_mismatch = false;
  for (const auto& k : tampered.kernels) {
    if (k.kernel == kernel::KernelId::kSortPairs) {
      saw_mismatch = k.mismatched > 0;
    }
  }
  EXPECT_TRUE(saw_mismatch);
  EXPECT_FALSE(tampered.ok());
}

TEST(KernelBackendDumpTest, RefusesToOverwriteExistingDumpWithoutForce) {
  io::ScopedTempDir dir("lasagna-kforce");
  const auto dump = dir.file("dump");
  {
    kernel::CaptureSession session(dump, 4, false);
    kernel::CaptureSession::ScopedInstall scoped(&session);
    gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
    fingerprint::PlaceTable places(
        fingerprint::FingerprintConfig::standard(), 128);
    (void)fingerprint::compute_batch_fingerprints(dev, ragged_reads(3),
                                                  places);
    EXPECT_EQ(session.captured(kernel::KernelId::kFingerprint), 1u);
  }
  EXPECT_THROW(kernel::CaptureSession(dump, 4, false), std::runtime_error);
  EXPECT_NO_THROW(kernel::CaptureSession(dump, 4, true));
  EXPECT_THROW(
      kernel::DumpWriter(dump / "fingerprint.lkd",
                         kernel::KernelId::kFingerprint, false),
      std::runtime_error);
}

TEST(KernelBackendDumpTest, RejectsMalformedAndTruncatedDumps) {
  io::ScopedTempDir dir("lasagna-kbad");

  // Wrong magic.
  {
    std::ofstream out(dir.file("garbage.lkd"), std::ios::binary);
    out << "this is not a kernel dump at all";
  }
  EXPECT_THROW(kernel::DumpReader(dir.file("garbage.lkd")),
               std::runtime_error);

  // Valid header, truncated record.
  const auto trunc = dir.file("trunc.lkd");
  {
    kernel::DumpWriter writer(trunc, kernel::KernelId::kSortPairs, false);
    std::vector<std::byte> blob(64, std::byte{42});
    writer.append({2, 0, 0, 0, 0, 0, 0, 0}, blob, blob);
    writer.close();
  }
  const auto full = slurp(trunc);
  {
    std::ofstream out(trunc, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() - 17));
  }
  {
    kernel::DumpReader reader(trunc);
    kernel::DumpRecord rec;
    EXPECT_THROW((void)reader.next(rec), std::runtime_error);
  }

  // Flipped payload byte fails the checksum.
  const auto corrupt = dir.file("corrupt.lkd");
  {
    std::ofstream out(corrupt, std::ios::binary);
    std::string bytes = full;
    bytes[bytes.size() - 1] ^= 0x40;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  {
    kernel::DumpReader reader(corrupt);
    kernel::DumpRecord rec;
    EXPECT_THROW((void)reader.next(rec), std::runtime_error);
  }

  // A short file claiming a 1 GiB input blob is rejected before the reader
  // sizes its buffer. The record's input size sits after the 24-byte
  // header and the 8 meta words.
  const auto huge = dir.file("huge.lkd");
  {
    std::ofstream out(huge, std::ios::binary);
    std::string bytes = full;
    const std::uint64_t claimed = 1ull << 30;
    std::memcpy(bytes.data() + 24 + 8 * 8, &claimed, sizeof(claimed));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  {
    kernel::DumpReader reader(huge);
    kernel::DumpRecord rec;
    try {
      (void)reader.next(rec);
      ADD_FAILURE() << "a 1 GiB blob in a short file was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("exceed the bytes left"),
                std::string::npos)
          << e.what();
    }
  }

  // Replay refuses an empty directory outright.
  EXPECT_THROW(
      (void)kernel::replay_dump(dir.file("empty"),
                                kernel::scalar_backend()),
      std::runtime_error);
}

// ---- seeded dump mutations -------------------------------------------------

/// A small capture of each kernel through the dispatch entries: four ragged
/// reads, five needles in a tied haystack, one five-pair sort chunk.
void capture_small_dump(const std::filesystem::path& dir) {
  kernel::CaptureSession session(dir, 4, /*force=*/false);
  kernel::CaptureSession::ScopedInstall scoped(&session);
  gpu::Device dev(gpu::GpuProfile::k40(), 8u << 20);
  const fingerprint::PlaceTable places(
      fingerprint::FingerprintConfig::standard(), 16);
  const std::vector<std::string> reads = {"ACGTTGCA", "", "GGA", "TTACG"};
  (void)fingerprint::compute_batch_fingerprints(dev, reads, places);

  kernel::DeviceContext ctx{&dev, nullptr, false};
  const std::vector<Key128> haystack = {{1, 1}, {2, 0}, {2, 0}, {5, 3},
                                        {9, 9}, {9, 9}, {12, 0}};
  const std::vector<Key128> needles = {{2, 0}, {0, 0}, {9, 9}, {13, 1},
                                       {5, 3}};
  std::vector<std::uint32_t> lower(needles.size());
  std::vector<std::uint32_t> upper(needles.size());
  kernel::run_match_bounds(needles, haystack, lower, upper, ctx);
  kernel::run_sort_pairs_batch(
      1,
      [](std::size_t, std::vector<Key128>& keys,
         std::vector<std::uint64_t>& values) {
        keys = {{3, 1}, {1, 2}, {3, 0}, {1, 2}, {0, 7}};
        values = {0, 1, 2, 3, 4};
      },
      [](std::size_t, std::span<const Key128>,
         std::span<const std::uint64_t>) {},
      ctx);
}

/// Forwards to `inner` only when the replay sized every buffer of the call
/// from bytes the dump holds: no element count beyond the file's bytes.
class BoundedBackend final : public kernel::Backend {
 public:
  BoundedBackend(kernel::Backend& inner, std::uint64_t file_bytes,
                 std::string what)
      : inner_(inner), file_bytes_(file_bytes), what_(std::move(what)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  [[nodiscard]] bool available() const override { return inner_.available(); }
  [[nodiscard]] bool uses_device() const override {
    return inner_.uses_device();
  }

  void fingerprint(const kernel::FingerprintJob& job,
                   kernel::DeviceContext* ctx) override {
    if (fits(static_cast<std::uint64_t>(job.count) * job.stride) &&
        fits(job.pow_primary.size()) && fits(job.pow_secondary.size())) {
      inner_.fingerprint(job, ctx);
    }
  }

  void match_bounds(std::span<const Key128> needles,
                    std::span<const Key128> haystack,
                    std::span<std::uint32_t> lower,
                    std::span<std::uint32_t> upper,
                    kernel::DeviceContext* ctx) override {
    if (fits(needles.size()) && fits(haystack.size())) {
      inner_.match_bounds(needles, haystack, lower, upper, ctx);
    }
  }

  void sort_pairs(std::span<Key128> keys, std::span<std::uint64_t> values,
                  kernel::DeviceContext* ctx) override {
    if (fits(keys.size()) && fits(values.size())) {
      inner_.sort_pairs(keys, values, ctx);
    }
  }

 private:
  bool fits(std::uint64_t elements) const {
    // A place-value table holds one entry past the longest read.
    if (elements <= file_bytes_ + 1) return true;
    ADD_FAILURE() << what_ << " under " << inner_.name() << ": a buffer of "
                  << elements << " elements from a " << file_bytes_
                  << "-byte dump";
    return false;
  }

  kernel::Backend& inner_;
  std::uint64_t file_bytes_;
  std::string what_;
};

/// Writes `bytes` as the only dump file in a directory of its kernel's
/// under `dir` and replays it under `backends`: each replay returns a
/// report or throws std::runtime_error (returned as its message; "" for a
/// report), and sizes no buffer beyond the dump's bytes.
std::vector<std::string> replay_mutant(
    const std::filesystem::path& dir, kernel::KernelId id,
    const std::string& bytes, const std::vector<kernel::Backend*>& backends,
    const std::string& what) {
  const auto kernel_dir = dir / kernel::kernel_name(id);
  const auto path = kernel_dir / kernel::dump_filename(id);
  std::filesystem::create_directories(kernel_dir);
  // A new file each time: rewriting a truncated one makes some file
  // systems flush it on close, thousands of times over.
  std::filesystem::remove(path);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::vector<std::string> errors;
  for (kernel::Backend* backend : backends) {
    BoundedBackend bounded(*backend, bytes.size(), what);
    try {
      (void)kernel::replay_dump(kernel_dir, bounded);
      errors.emplace_back();
    } catch (const std::runtime_error& e) {
      errors.emplace_back(e.what());
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " under " << backend->name() << ": "
                    << e.what();
      errors.emplace_back(e.what());
    }
  }
  return errors;
}

/// Every backend rejects `bytes` as a malformed record.
void expect_malformed(const std::filesystem::path& dir, kernel::KernelId id,
                      const std::string& bytes, const std::string& what) {
  const auto backends = all_backends_under_test();
  const auto errors = replay_mutant(dir, id, bytes, backends, what);
  for (std::size_t i = 0; i < backends.size(); ++i) {
    EXPECT_NE(errors[i].find("kernel dump record malformed"),
              std::string::npos)
        << what << " under " << backends[i]->name() << ": \"" << errors[i]
        << "\"";
  }
}

// Byte offsets in a dump: the 24-byte header (record count at 16), then
// the first record's 8 meta words, its input and output sizes, their two
// checksums and the blobs.
constexpr std::size_t kRecordCountAt = 16;
constexpr std::size_t kMetaAt = 24;
constexpr std::size_t kInputSizeAt = kMetaAt + 8 * 8;
constexpr std::size_t kChecksumsAt = kInputSizeAt + 2 * 8;
constexpr std::size_t kBlobsAt = kChecksumsAt + 2 * 8;

std::uint64_t word_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void set_word(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

/// Recompute the first record's blob checksums, so the damage reaches the
/// replay instead of failing the reader.
void rechecksum(std::string& bytes) {
  const std::uint64_t in = word_at(bytes, kInputSizeAt);
  const std::uint64_t out = word_at(bytes, kInputSizeAt + 8);
  const auto* blobs = reinterpret_cast<const std::byte*>(bytes.data()) +
                      kBlobsAt;
  set_word(bytes, kChecksumsAt, kernel::fnv1a_bytes({blobs, in}));
  set_word(bytes, kChecksumsAt + 8, kernel::fnv1a_bytes({blobs + in, out}));
}

TEST(KernelBackendDumpTest, SeededMutationsParseOrReject) {
  io::ScopedTempDir dir("lasagna-kmutate");
  capture_small_dump(dir.file("dump"));
  const auto mutant_dir = dir.file("mutant");
  const auto backends = all_backends_under_test();

  // Fixed inputs: counts whose size products wrap, and a stride that would
  // size the place tables by itself.
  std::string m = slurp(dir.file("dump") / "match_bounds.lkd");
  set_word(m, kMetaAt + 8, word_at(m, kMetaAt + 8) | (1ull << 60));
  expect_malformed(mutant_dir, kernel::KernelId::kMatchBounds, m,
                   "haystack count bit 60");
  m = slurp(dir.file("dump") / "sort_pairs.lkd");
  set_word(m, kMetaAt, word_at(m, kMetaAt) | (1ull << 61));
  expect_malformed(mutant_dir, kernel::KernelId::kSortPairs, m,
                   "sort count bit 61");
  {
    const auto path = dir.file("empty_reads.lkd");
    kernel::DumpWriter writer(path, kernel::KernelId::kFingerprint, false);
    const auto cfg = fingerprint::FingerprintConfig::standard();
    writer.append({0, 0xffffffffull, cfg.primary.radix, cfg.primary.modulus,
                   cfg.secondary.radix, cfg.secondary.modulus, 0, 0},
                  {}, {});
    writer.close();
    expect_malformed(mutant_dir, kernel::KernelId::kFingerprint, slurp(path),
                     "no reads at stride 2^32-1");
  }

  std::mt19937_64 rng(0x1cd);
  auto pick = [&](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  for (const kernel::KernelId id :
       {kernel::KernelId::kFingerprint, kernel::KernelId::kMatchBounds,
        kernel::KernelId::kSortPairs}) {
    const std::string at = kernel::kernel_name(id);
    const std::string dump =
        slurp(dir.file("dump") / kernel::dump_filename(id));
    ASSERT_GT(dump.size(), kBlobsAt) << at;
    auto replay = [&](const std::string& bytes, const std::string& what) {
      (void)replay_mutant(mutant_dir, id, bytes, backends, at + " " + what);
    };
    const std::size_t blob_bytes = dump.size() - kBlobsAt;
    for (int trial = 0; trial < 32; ++trial) {
      m = dump;
      m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
      replay(m, "bit flip");
      m = dump;
      m[pick(m.size())] = static_cast<char>(rng());
      replay(m, "overwrite");
      replay(dump.substr(0, pick(dump.size())), "truncate");
      m = dump;
      for (std::size_t k = 1 + pick(16); k > 0; --k) {
        m.push_back(static_cast<char>(rng()));
      }
      replay(m, "tail");
      // Damage the blobs behind valid checksums: lengths past the stride,
      // codes past 3, an unsorted haystack reach the replay itself.
      m = dump;
      for (std::size_t k = 1 + pick(4); k > 0; --k) {
        m[kBlobsAt + pick(blob_bytes)] = static_cast<char>(rng());
      }
      rechecksum(m);
      replay(m, "re-checksummed overwrite");
    }
    // The record count, the first record's meta words and both blob sizes
    // near every power of two.
    std::vector<std::size_t> words = {kRecordCountAt, kInputSizeAt,
                                      kInputSizeAt + 8};
    for (std::size_t w = 0; w < 8; ++w) words.push_back(kMetaAt + 8 * w);
    for (const std::size_t word : words) {
      for (unsigned k = 0; k < 64; ++k) {
        for (const std::uint64_t v :
             {(1ull << k) - 1, 1ull << k, (1ull << k) + 1}) {
          m = dump;
          set_word(m, word, v);
          replay(m, "word @" + std::to_string(word) + " = " +
                        std::to_string(v));
        }
      }
    }
  }
}

// ---- pipeline conformance --------------------------------------------------

TEST(KernelBackendPipelineTest, ContigsByteIdenticalAcrossBackends) {
  io::ScopedTempDir dir("lasagna-kconform");
  const auto fastq = write_fastq(dir, 31);

  auto run_with = [&](const std::string& backend) {
    auto config = small_config();
    config.kernel_backend = backend;
    core::Assembler assembler(config);
    const auto out = dir.file("contigs_" + backend + ".fa");
    (void)assembler.run(fastq, out);
    return slurp(out);
  };

  // The simulated cluster runs under whichever backend is installed: a
  // 4-node run writes the single-node contigs under each of them.
  auto run_cluster_with = [&](const std::string& backend) {
    const kernel::ScopedBackend scope(kernel::resolve_backend(backend));
    dist::ClusterConfig cluster;
    static_cast<core::RunConfig&>(cluster) = small_config();
    cluster.node_count = 4;
    const auto out = dir.file("contigs4_" + backend + ".fa");
    (void)dist::run_distributed(fastq, out, cluster);
    return slurp(out);
  };

  const std::string golden = run_with("simulated");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(run_with("scalar"), golden);
  EXPECT_EQ(run_with("host"), golden);  // avx2 where available
  std::vector<std::string> backends = {"simulated", "scalar", "host"};
  if (kernel::avx2_backend().available()) {
    EXPECT_EQ(run_with("avx2"), golden);
    backends.push_back("avx2");
  }
  for (const std::string& backend : backends) {
    EXPECT_EQ(run_cluster_with(backend), golden) << backend;
  }
}

TEST(KernelBackendPipelineTest, TieCorpusContigsIdenticalAcrossBackends) {
  // The adversarial equal-fingerprint corpus: repeated blocks force dense
  // duplicate fingerprints through sort and match alike.
  io::ScopedTempDir dir("lasagna-kties");
  const auto fastq = dir.file("ties.fq");
  lasagna::testing::write_tie_fastq(fastq, /*copies=*/6, /*read_length=*/100,
                                    /*coverage=*/6.0, /*seed=*/97);

  auto run_with = [&](const std::string& backend) {
    auto config = small_config();
    config.kernel_backend = backend;
    core::Assembler assembler(config);
    const auto out = dir.file("tie_contigs_" + backend + ".fa");
    (void)assembler.run(fastq, out);
    return slurp(out);
  };

  const std::string golden = run_with("simulated");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(run_with("host"), golden);
  EXPECT_EQ(run_with("scalar"), golden);
}

/// Forwards every call to `inner` and counts the calls per kernel.
class CountingBackend final : public kernel::Backend {
 public:
  explicit CountingBackend(kernel::Backend& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  [[nodiscard]] bool available() const override { return inner_.available(); }
  [[nodiscard]] bool uses_device() const override {
    return inner_.uses_device();
  }

  void fingerprint(const kernel::FingerprintJob& job,
                   kernel::DeviceContext* ctx) override {
    ++fingerprints;
    inner_.fingerprint(job, ctx);
  }

  void match_bounds(std::span<const Key128> needles,
                    std::span<const Key128> haystack,
                    std::span<std::uint32_t> lower,
                    std::span<std::uint32_t> upper,
                    kernel::DeviceContext* ctx) override {
    ++matches;
    inner_.match_bounds(needles, haystack, lower, upper, ctx);
  }

  void sort_pairs(std::span<Key128> keys, std::span<std::uint64_t> values,
                  kernel::DeviceContext* ctx) override {
    ++sorts;
    inner_.sort_pairs(keys, values, ctx);
  }

  std::atomic<unsigned> fingerprints{0};
  std::atomic<unsigned> matches{0};
  std::atomic<unsigned> sorts{0};

 private:
  kernel::Backend& inner_;
};

TEST(KernelBackendPipelineTest, SimulatedDeviceRunsEveryKernelThroughBackend) {
  // The simulated device has no private path at the call sites: a cluster
  // run on it reaches all three kernels through the installed backend.
  io::ScopedTempDir dir("lasagna-kdispatch");
  const auto fastq = write_fastq(dir, 41);
  dist::ClusterConfig config = dist::ClusterConfig::supermic(1);
  config.min_overlap = 60;
  config.machine.host_memory_bytes = 1 << 20;
  config.machine.device_memory_bytes = 1 << 18;

  CountingBackend counting(kernel::simulated_backend());
  {
    kernel::ScopedBackend scope(counting);
    (void)dist::run_distributed(fastq, dir.file("contigs.fa"), config);
  }
  EXPECT_GT(counting.fingerprints.load(), 0u);
  EXPECT_GT(counting.matches.load(), 0u);
  EXPECT_GT(counting.sorts.load(), 0u);
}

TEST(KernelBackendPipelineTest, HostBackendReduceAllocatesNoDeviceMemory) {
  io::ScopedTempDir dir("lasagna-khostreduce");
  const auto fastq = write_fastq(dir, 43);
  auto config = small_config();
  config.machine.host_memory_bytes = 512 << 10;
  config.machine.device_memory_bytes = 64 << 10;
  config.kernel_backend = "scalar";
  core::Assembler assembler(config);
  const auto result = assembler.run(fastq, dir.file("contigs.fa"));

  const util::PhaseStats& reduce = result.stats.phase("reduce");
  EXPECT_GT(result.candidate_edges, 0u);
  EXPECT_EQ(reduce.peak_device_bytes, 0u);
  for (const auto& [name, delta] : reduce.metrics) {
    EXPECT_NE(name, "gpu.allocs") << delta;
    EXPECT_NE(name, "gpu.alloc_bytes") << delta;
  }
}

TEST(KernelBackendPipelineTest, HostBackendSortAllocatesNoDeviceMemory) {
  // A 16 KiB device makes m_d = 170 records, so every host block spans
  // several device chunks and the sort runs Algorithm-1 window merges. The
  // merges still charge their modeled device round trip, but no backend
  // allocates device memory for them.
  io::ScopedTempDir dir("lasagna-khostsort");
  const auto fastq = write_fastq(dir, 47);
  auto config = small_config();
  config.machine.host_memory_bytes = 512 << 10;
  config.machine.device_memory_bytes = 16 << 10;
  config.kernel_backend = "scalar";
  core::Assembler assembler(config);
  const auto result = assembler.run(fastq, dir.file("contigs.fa"));

  const util::PhaseStats& sort = result.stats.phase("sort");
  EXPECT_GT(result.candidate_edges, 0u);
  EXPECT_EQ(sort.peak_device_bytes, 0u);
  bool merged = false;
  for (const auto& [name, delta] : sort.metrics) {
    EXPECT_NE(name, "gpu.allocs") << delta;
    EXPECT_NE(name, "gpu.alloc_bytes") << delta;
    merged = merged || (name == "gpu.kernel_charges" && delta > 0);
  }
  EXPECT_TRUE(merged) << "the sort ran no device merge";
}

}  // namespace
}  // namespace lasagna
