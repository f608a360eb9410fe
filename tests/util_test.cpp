#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/bitvector.hpp"
#include "util/memory_tracker.hpp"
#include "util/modmath.hpp"
#include "util/prime.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lasagna::util {
namespace {

TEST(Timer, FormatDuration) {
  EXPECT_EQ(format_duration(0.5), "0.500s");
  EXPECT_EQ(format_duration(5.0), "5s");
  EXPECT_EQ(format_duration(125.0), "2m 5s");
  EXPECT_EQ(format_duration(3600.0 + 61.0), "1h 1m 1s");
  EXPECT_EQ(format_duration(58869.0), "16h 21m 9s");  // paper Table II total
}

TEST(Timer, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(3ull << 30), "3.00 GiB");
}

TEST(Timer, WallTimerAdvances) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(ModMath, MulModLargeOperands) {
  const std::uint64_t m = (1ull << 61) - 1;
  EXPECT_EQ(mulmod(m - 1, m - 1, m), 1u);  // (-1)^2 = 1 mod m
  EXPECT_EQ(mulmod(0, 12345, m), 0u);
  EXPECT_EQ(addmod(m - 1, 1, m), 0u);
  EXPECT_EQ(submod(0, 1, m), m - 1);
}

TEST(ModMath, PowMod) {
  EXPECT_EQ(powmod(2, 10, 1000000007ull), 1024u);
  EXPECT_EQ(powmod(5, 0, 97), 1u);
  // Fermat: a^(p-1) = 1 mod p.
  const std::uint64_t p = 2305843009213693951ull;  // 2^61 - 1, prime
  EXPECT_EQ(powmod(123456789, p - 1, p), 1u);
}

TEST(Prime, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(91));  // 7 * 13
}

TEST(Prime, KnownLargePrimes) {
  EXPECT_TRUE(is_prime(2305843009213693951ull));   // 2^61 - 1 (Mersenne)
  EXPECT_FALSE(is_prime(2305843009213693953ull));
  EXPECT_TRUE(is_prime(18446744073709551557ull));  // largest 64-bit prime
}

TEST(Prime, NextPrime) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(17), 17u);
}

TEST(Prime, RandomPrimeInRangeAndReproducible) {
  const std::uint64_t p1 = random_prime(1ull << 60, 1ull << 61, 42);
  const std::uint64_t p2 = random_prime(1ull << 60, 1ull << 61, 42);
  EXPECT_EQ(p1, p2);
  EXPECT_TRUE(is_prime(p1));
  EXPECT_GE(p1, 1ull << 60);
  EXPECT_LE(p1, 1ull << 61);
  EXPECT_NE(p1, random_prime(1ull << 60, 1ull << 61, 43));
}

TEST(BitVector, SetTestClear) {
  AtomicBitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_FALSE(v.test(0));
  EXPECT_FALSE(v.test_and_set(129));
  EXPECT_TRUE(v.test(129));
  EXPECT_TRUE(v.test_and_set(129));
  v.clear(129);
  EXPECT_FALSE(v.test(129));
  EXPECT_THROW((void)v.test(130), std::out_of_range);
}

TEST(BitVector, CountAndReset) {
  AtomicBitVector v(1000);
  for (std::size_t i = 0; i < 1000; i += 7) v.set(i);
  EXPECT_EQ(v.count(), (1000 + 6) / 7);
  v.reset();
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVector, ConcurrentTestAndSetIsExclusive) {
  AtomicBitVector v(64);
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      if (!v.test_and_set(7)) winners.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(MemoryTracker, PeakTracksHighWater) {
  MemoryTracker t("test");
  t.allocate(100);
  t.allocate(50);
  t.release(120);
  EXPECT_EQ(t.current(), 30u);
  EXPECT_EQ(t.peak(), 150u);
  t.reset_peak();
  EXPECT_EQ(t.peak(), 30u);
}

TEST(MemoryTracker, CapacityEnforced) {
  MemoryTracker t("small", 100);
  t.allocate(80);
  EXPECT_THROW(t.allocate(21), MemoryTracker::CapacityError);
  EXPECT_EQ(t.current(), 80u) << "failed allocation must not change usage";
  t.allocate(20);
  EXPECT_EQ(t.current(), 100u);
}

TEST(MemoryTracker, TrackedAllocationRaii) {
  MemoryTracker t("raii");
  {
    TrackedAllocation a(t, 64);
    EXPECT_EQ(t.current(), 64u);
    TrackedAllocation b = std::move(a);
    EXPECT_EQ(t.current(), 64u);
  }
  EXPECT_EQ(t.current(), 0u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkedCoversDisjointRanges) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(517);
  pool.parallel_for_chunked(517, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkedRethrowsARangesExceptionInTheCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_chunked(
                   8,
                   [](std::size_t begin, std::size_t end) {
                     if (begin <= 5 && 5 < end) {
                       throw std::runtime_error("range fault");
                     }
                   }),
               std::runtime_error);
  // The pool survives the fault and runs the next call.
  std::vector<std::atomic<int>> hits(8);
  pool.parallel_for(8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

/// Runs `body` on a thread of its own and fails when it has not returned
/// within `deadline`. A hung body cannot be joined, so the process then
/// exits with a failure instead of hanging the suite.
void run_with_deadline(std::chrono::seconds deadline,
                       std::function<void()> body) {
  std::packaged_task<void()> task(std::move(body));
  std::future<void> done = task.get_future();
  std::thread runner(std::move(task));
  if (done.wait_for(deadline) != std::future_status::ready) {
    std::fprintf(stderr, "no return within %llds: deadlocked\n",
                 static_cast<long long>(deadline.count()));
    std::_Exit(1);
  }
  runner.join();
  done.get();
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // Every outer body blocks in an inner parallel_for on the same pool, so
  // both workers end up inside outer bodies while inner ranges are queued.
  run_with_deadline(std::chrono::seconds(30), [] {
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(64);
    pool.parallel_for(8, [&](std::size_t outer) {
      pool.parallel_for(8, [&](std::size_t inner) {
        hits[outer * 8 + inner].fetch_add(1);
      });
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  });
}

TEST(ThreadPool, CallerRunsChunksWhileWorkersAreBusy) {
  run_with_deadline(std::chrono::seconds(30), [] {
    ThreadPool pool(1);
    std::promise<void> release;
    std::shared_future<void> parked = release.get_future().share();
    pool.submit([parked] { parked.wait(); });
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
    release.set_value();
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  });
}

TEST(RunStats, TotalsAndLookup) {
  RunStats stats;
  stats.add(PhaseStats{.name = "map",
                       .wall_seconds = 10.0,
                       .modeled_seconds = 8.0,
                       .peak_host_bytes = 100,
                       .peak_device_bytes = 50,
                       .disk_bytes_read = 1000,
                       .disk_bytes_written = 2000,
                       .metrics = {{"io.faults_injected", 2},
                                   {"io.faults_retried", 1},
                                   {"pool.tasks", 7}}});
  stats.add(PhaseStats{.name = "sort",
                       .wall_seconds = 30.0,
                       .modeled_seconds = 25.0,
                       .peak_host_bytes = 200,
                       .peak_device_bytes = 60,
                       .disk_bytes_read = 5000,
                       .disk_bytes_written = 5000,
                       .metrics = {{"gpu.allocs", 3},
                                   {"io.faults_injected", 1}}});
  EXPECT_DOUBLE_EQ(stats.total_wall_seconds(), 40.0);
  EXPECT_DOUBLE_EQ(stats.total_modeled_seconds(), 33.0);
  EXPECT_EQ(stats.total_disk_bytes(), 13000u);
  EXPECT_EQ(stats.phase("sort").peak_host_bytes, 200u);
  EXPECT_TRUE(stats.has_phase("map"));
  EXPECT_FALSE(stats.has_phase("reduce"));
  EXPECT_THROW((void)stats.phase("reduce"), std::out_of_range);
  EXPECT_NE(stats.to_table().find("sort"), std::string::npos);
  // The fault line sums each phase's registry fault counters.
  EXPECT_NE(stats.to_table().find("faults: 3 injected, 1 retried, 0 fatal"),
            std::string::npos);
}

TEST(RunStats, TableShowsWallWithTwoDecimals) {
  RunStats stats;
  stats.add(PhaseStats{
      .name = "map", .wall_seconds = 1.4, .modeled_seconds = 1.4});
  const std::string table = stats.to_table();
  // format_duration would round the 1.4 s wall time to "1s".
  EXPECT_NE(table.find("map         1.40s "), std::string::npos) << table;
  EXPECT_NE(table.find("total       1.40s "), std::string::npos) << table;
  // The modeled column keeps the paper's h/m/s form.
  EXPECT_NE(table.find("1.40s       1s "), std::string::npos) << table;
}

}  // namespace
}  // namespace lasagna::util
