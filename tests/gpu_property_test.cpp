// Property sweeps over the device primitives: the radix sort and merge
// must agree with the standard library across key distributions, sizes and
// duplicate densities.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "gpu/device.hpp"
#include "gpu/primitives.hpp"

namespace lasagna::gpu {
namespace {

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
  Device dev(GpuProfile::k40(), 64ull << 20);
  auto keys = generate(dist, n, n * 31 + 1);
  const auto original = keys;
  std::vector<std::uint32_t> vals(n);
  std::iota(vals.begin(), vals.end(), 0u);

  sort_pairs<std::uint32_t>(default_stream(dev), keys, vals);

  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // vals is a permutation and each val points to its original key.
  std::vector<bool> seen(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_LT(vals[i], n);
    ASSERT_FALSE(seen[vals[i]]) << "duplicate value " << vals[i];
    seen[vals[i]] = true;
    ASSERT_EQ(original[vals[i]], keys[i]);
  }
  // Stability: equal keys keep ascending original indices.
  for (std::size_t i = 1; i < n; ++i) {
    if (keys[i - 1] == keys[i]) {
      ASSERT_LT(vals[i - 1], vals[i]);
    }
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

TEST(SortSkipsDegeneratePasses, ConstantKeysCostLess) {
  // All-equal keys let every radix pass be skipped; modeled cost must be
  // far below the uniform-random cost for the same n.
  const std::size_t n = 50000;
  auto cost_of = [n](KeyDistribution dist) {
    Device dev(GpuProfile::k40(), 64ull << 20);
    auto keys = generate(dist, n, 9);
    std::vector<std::uint32_t> vals(n);
    sort_pairs<std::uint32_t>(default_stream(dev), keys, vals);
    return dev.modeled_seconds();
  };
  // kSortedAlready uses keys 0..n-1 in lo only -> hi passes skipped.
  EXPECT_LT(cost_of(KeyDistribution::kHighBitsOnly),
            cost_of(KeyDistribution::kUniform));
}

TEST(ScanSweep, MatchesStdPartialSum) {
  Device dev(GpuProfile::k40(), 64ull << 20);
  std::mt19937_64 rng(23);
  for (const std::size_t n : {0ull, 1ull, 100ull, 10000ull}) {
    std::vector<std::uint64_t> in(n);
    for (auto& v : in) v = rng() % 1000;
    std::vector<std::uint64_t> expected(n);
    std::partial_sum(in.begin(), in.end(), expected.begin());

    std::vector<std::uint64_t> excl(n);
    exclusive_scan<std::uint64_t>(default_stream(dev), in, excl);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(excl[i], expected[i] - in[i]);
    }
  }
}

}  // namespace
}  // namespace lasagna::gpu
