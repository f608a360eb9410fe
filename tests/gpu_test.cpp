#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "gpu/device.hpp"
#include "gpu/key128.hpp"
#include "gpu/primitives.hpp"
#include "gpu/profile.hpp"
#include "gpu/stream.hpp"
#include "kernel/backend.hpp"
#include "obs/metrics.hpp"

namespace lasagna::gpu {
namespace {

Device small_device(std::uint64_t capacity = 64ull << 20) {
  return Device(GpuProfile::k40(), capacity);
}

std::vector<Key128> random_keys(std::size_t n, std::uint64_t seed,
                                std::uint64_t key_space = UINT64_MAX) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> dist(0, key_space);
  std::vector<Key128> keys(n);
  for (auto& k : keys) k = Key128{dist(rng), dist(rng)};
  return keys;
}

TEST(Key128, OrderingIsLexicographic) {
  EXPECT_LT((Key128{0, 5}), (Key128{1, 0}));
  EXPECT_LT((Key128{1, 0}), (Key128{1, 1}));
  EXPECT_EQ((Key128{2, 3}), (Key128{2, 3}));
}

TEST(Key128, DigitsReconstructKey) {
  const Key128 k{0x0123456789abcdefull, 0xfedcba9876543210ull};
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  for (unsigned b = 0; b < 8; ++b) {
    lo |= static_cast<std::uint64_t>(k.digit(b)) << (8 * b);
  }
  for (unsigned b = 8; b < 16; ++b) {
    hi |= static_cast<std::uint64_t>(k.digit(b)) << (8 * (b - 8));
  }
  EXPECT_EQ(lo, k.lo);
  EXPECT_EQ(hi, k.hi);
}

TEST(Device, EnforcesCapacity) {
  Device dev = small_device(1024);
  auto a = dev.alloc<std::uint64_t>(64);  // 512 bytes
  EXPECT_EQ(dev.memory().current(), 512u);
  EXPECT_THROW((void)dev.alloc<std::uint64_t>(128),
               util::MemoryTracker::CapacityError);
  a.reset();
  EXPECT_EQ(dev.memory().current(), 0u);
  auto b = dev.alloc<std::uint64_t>(128);  // fits now
  EXPECT_EQ(b.bytes(), 1024u);
}

TEST(Device, TransfersAdvanceModeledClockAndCounter) {
  Device dev = small_device();
  const double before = dev.modeled_seconds();
  const std::int64_t bytes_before =
      obs::MetricsRegistry::global().value("gpu.transfer_bytes");
  default_stream(dev).charge_transfer(std::uint64_t{1} << 19);
  EXPECT_GT(dev.modeled_seconds(), before);
  EXPECT_EQ(obs::MetricsRegistry::global().value("gpu.transfer_bytes") -
                bytes_before,
            std::int64_t{1} << 19);
}

TEST(Profiles, PaperSpecsOrdering) {
  // Fig 9's explanation: P40 has more cores but less bandwidth than P100.
  EXPECT_GT(GpuProfile::p40().cuda_cores, GpuProfile::p100().cuda_cores);
  EXPECT_LT(GpuProfile::p40().mem_bandwidth_gbs,
            GpuProfile::p100().mem_bandwidth_gbs);
  // V100 is the fastest on both axes among the paper's GPUs.
  EXPECT_GT(GpuProfile::v100().mem_bandwidth_gbs,
            GpuProfile::p100().mem_bandwidth_gbs);
  // Bandwidth-bound op: the cost model must rank P100 faster than P40.
  const std::uint64_t bytes = 1ull << 30;
  EXPECT_LT(GpuProfile::p100().kernel_seconds(bytes, bytes / 8),
            GpuProfile::p40().kernel_seconds(bytes, bytes / 8));
}

TEST(SortPairs, ChargesDeviceMemoryForDoubleBuffer) {
  // Sorting n resident pairs needs another n pairs of double-buffer; a
  // device sized for the input alone must throw.
  Device dev(GpuProfile::k40(), 1000 * (16 + 8) + 100);
  const auto d_keys = dev.alloc<Key128>(1000);
  const auto d_vals = dev.alloc<std::uint64_t>(1000);
  const std::vector<Key128> keys(1000);
  EXPECT_THROW(charge_sort_pairs(default_stream(dev), keys),
               util::MemoryTracker::CapacityError);
}

TEST(Scans, InclusiveExclusive) {
  Device dev = small_device();
  std::vector<std::uint64_t> in{3, 1, 4, 1, 5};
  std::vector<std::uint64_t> out(in.size());
  EXPECT_EQ(exclusive_scan<std::uint64_t>(default_stream(dev), in, out), 14u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 3, 4, 8, 9}));
}

TEST(Scans, AliasingInput) {
  Device dev = small_device();
  std::vector<std::uint64_t> data{1, 2, 3, 4};
  exclusive_scan<std::uint64_t>(default_stream(dev), data, data);
  EXPECT_EQ(data, (std::vector<std::uint64_t>{0, 1, 3, 6}));
}

// The batched lower/upper bound of Algorithm 2 (lines 8-9), run on the
// simulated device's default stream.
TEST(VectorBounds, MatchStdAlgorithms) {
  Device dev = small_device();
  auto haystack = random_keys(5000, 11, 300);
  std::sort(haystack.begin(), haystack.end());
  auto needles = random_keys(1000, 13, 300);

  std::vector<std::uint32_t> lower(needles.size());
  std::vector<std::uint32_t> upper(needles.size());
  kernel::DeviceContext ctx{&dev};
  const double before = dev.modeled_seconds();
  kernel::simulated_backend().match_bounds(needles, haystack, lower, upper,
                                           &ctx);
  EXPECT_GT(dev.modeled_seconds(), before);

  for (std::size_t i = 0; i < needles.size(); ++i) {
    const auto lb = std::lower_bound(haystack.begin(), haystack.end(),
                                     needles[i]) -
                    haystack.begin();
    const auto ub = std::upper_bound(haystack.begin(), haystack.end(),
                                     needles[i]) -
                    haystack.begin();
    ASSERT_EQ(lower[i], static_cast<std::uint32_t>(lb));
    ASSERT_EQ(upper[i], static_cast<std::uint32_t>(ub));
    // Occurrence count = upper - lower (Algorithm 2's C array).
    ASSERT_EQ(upper[i] - lower[i],
              std::count(haystack.begin(), haystack.end(), needles[i]));
  }
}

TEST(VectorBounds, EmptyHaystack) {
  Device dev = small_device();
  auto needles = random_keys(10, 1);
  std::vector<Key128> haystack;
  std::vector<std::uint32_t> lower(needles.size(), 99);
  std::vector<std::uint32_t> upper(needles.size(), 99);
  kernel::DeviceContext ctx{&dev};
  kernel::simulated_backend().match_bounds(needles, haystack, lower, upper,
                                           &ctx);
  for (auto v : lower) EXPECT_EQ(v, 0u);
  for (auto v : upper) EXPECT_EQ(v, 0u);
}

TEST(GatherScatter, RoundTrip) {
  Device dev = small_device();
  std::vector<std::uint64_t> src{10, 20, 30, 40, 50};
  std::vector<std::uint32_t> perm{4, 2, 0, 3, 1};
  std::vector<std::uint64_t> gathered(5);
  gather<std::uint64_t, std::uint32_t>(default_stream(dev), src, perm,
                                       gathered);
  EXPECT_EQ(gathered, (std::vector<std::uint64_t>{50, 30, 10, 40, 20}));
}

TEST(CostModel, KernelChargesScaleWithBytes) {
  Device dev = small_device();
  const double t0 = dev.modeled_seconds();
  default_stream(dev).charge_kernel(1ull << 30, 0);
  const double t1 = dev.modeled_seconds();
  default_stream(dev).charge_kernel(2ull << 30, 0);
  const double t2 = dev.modeled_seconds();
  EXPECT_NEAR((t2 - t1) / (t1 - t0), 2.0, 0.01);
}

}  // namespace
}  // namespace lasagna::gpu
