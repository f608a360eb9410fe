// Property checks over the device primitives: the sort charge skips the
// radix passes of digits every key shares, and the scan agrees with the
// standard library across sizes. (Every backend's sort_pairs is swept in
// kernel_backend_test.cpp.)
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "gpu/device.hpp"
#include "gpu/primitives.hpp"

namespace lasagna::gpu {
namespace {

TEST(SortSkipsDegeneratePasses, ConstantKeysCostLess) {
  // Keys that share a digit skip its radix pass: all-equal keys cost the
  // histogram pre-pass alone, keys sharing their low word skip its eight
  // passes, and both cost less than uniform keys of the same count.
  const std::size_t n = 50000;
  std::mt19937_64 rng(9);
  auto cost_of = [n](auto&& key_of) {
    Device dev(GpuProfile::k40(), 64ull << 20);
    std::vector<Key128> keys(n);
    for (auto& k : keys) k = key_of();
    charge_sort_pairs(default_stream(dev), keys);
    return dev.modeled_seconds();
  };
  const double constant = cost_of([] { return Key128{42, 0xdeadbeef}; });
  const double high_bits =
      cost_of([&rng] { return Key128{rng(), 0xdeadbeef}; });
  const double uniform = cost_of([&rng] { return Key128{rng(), rng()}; });
  EXPECT_LT(constant, high_bits);
  EXPECT_LT(high_bits, uniform);
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
