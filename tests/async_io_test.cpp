// Background stages and the record streams built on them: ordering, EOF
// contract, stats accounting, error propagation from the background thread,
// and the threadless depth-0 path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "io/async_record_stream.hpp"
#include "io/record_stream.hpp"
#include "io/tempdir.hpp"
#include "util/background.hpp"

namespace lasagna::io {
namespace {

struct Pod {
  std::uint64_t key;
  std::uint32_t value;
  std::uint32_t pad;
};

std::vector<Pod> make_pods(std::size_t n) {
  std::vector<Pod> pods(n);
  for (std::size_t i = 0; i < n; ++i) {
    pods[i] = Pod{i * 31 + 7, static_cast<std::uint32_t>(i), 0};
  }
  return pods;
}

TEST(AsyncRecordReader, MatchesSynchronousReader) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  const auto pods = make_pods(1337);
  write_all_records<Pod>(dir.file("pods.bin"), pods, stats);

  const auto before = stats.snapshot();
  // Tiny prefetch blocks force many producer/consumer handoffs.
  AsyncRecordReader<Pod> reader(dir.file("pods.bin"), stats, 16, 2);
  std::vector<Pod> got;
  while (!reader.eof()) {
    reader.read(got, 100);  // not a multiple of the block size
  }
  ASSERT_EQ(got.size(), pods.size());
  for (std::size_t i = 0; i < pods.size(); ++i) {
    EXPECT_EQ(got[i].key, pods[i].key) << "record " << i;
    EXPECT_EQ(got[i].value, pods[i].value) << "record " << i;
  }
  const auto after = stats.snapshot();
  EXPECT_EQ(after.bytes_read - before.bytes_read,
            pods.size() * sizeof(Pod));
}

TEST(AsyncRecordReader, ShortReadOnlyAtEof) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  write_all_records<Pod>(dir.file("pods.bin"), make_pods(50), stats);

  AsyncRecordReader<Pod> reader(dir.file("pods.bin"), stats, 8, 1);
  std::vector<Pod> got;
  EXPECT_EQ(reader.read(got, 30), 30u);  // full despite 8-record blocks
  EXPECT_FALSE(reader.eof());
  EXPECT_EQ(reader.read(got, 30), 20u);  // short: end of file
  EXPECT_TRUE(reader.eof());
  EXPECT_EQ(reader.read(got, 30), 0u);
}

TEST(AsyncRecordReader, EmptyFile) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  write_all_records<Pod>(dir.file("empty.bin"), std::vector<Pod>{}, stats);

  AsyncRecordReader<Pod> reader(dir.file("empty.bin"), stats);
  std::vector<Pod> got;
  EXPECT_EQ(reader.read(got, 10), 0u);
  EXPECT_TRUE(reader.eof());
}

TEST(AsyncRecordReader, MissingFileThrowsInCallerThread) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  EXPECT_THROW(AsyncRecordReader<Pod>(dir.file("absent.bin"), stats),
               std::system_error);
}

TEST(AsyncRecordReader, TruncatedRecordPropagatesError) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  {
    std::ofstream out(dir.file("bad.bin"), std::ios::binary);
    const char junk[sizeof(Pod) + 3] = {};  // not a multiple of the record
    out.write(junk, sizeof(junk));
  }
  AsyncRecordReader<Pod> reader(dir.file("bad.bin"), stats, 4, 1);
  std::vector<Pod> got;
  EXPECT_THROW(
      {
        while (!reader.eof()) reader.read(got, 64);
      },
      std::runtime_error);
}

TEST(AsyncRecordReader, DepthZeroIsTheSynchronousReader) {
  ScopedTempDir dir("lasagna-test");
  IoStats write_stats;
  write_all_records<Pod>(dir.file("pods.bin"), make_pods(50), write_stats);

  IoStats sync_stats;
  IoStats async_stats;
  RecordReader<Pod> sync(dir.file("pods.bin"), sync_stats);
  AsyncRecordReader<Pod> async(dir.file("pods.bin"), async_stats, 8, 0);
  std::vector<Pod> a;
  std::vector<Pod> b;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(async.read(b, 30), sync.read(a, 30));
    EXPECT_EQ(async.eof(), sync.eof());
  }
  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(async_stats.read_ops(), sync_stats.read_ops());
}

TEST(AsyncRecordWriter, MatchesSynchronousWriter) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  const auto pods = make_pods(1000);

  {
    AsyncRecordWriter<Pod> writer(dir.file("async.bin"), stats, 32, 2);
    // Mixed bulk and single writes, misaligned with the block size.
    writer.write(std::span<const Pod>(pods).first(500));
    for (std::size_t i = 500; i < 700; ++i) writer.write_one(pods[i]);
    writer.write(std::span<const Pod>(pods).subspan(700));
    EXPECT_EQ(writer.count(), pods.size());
    writer.close();
  }

  IoStats read_stats;
  const auto got = read_all_records<Pod>(dir.file("async.bin"), read_stats);
  ASSERT_EQ(got.size(), pods.size());
  for (std::size_t i = 0; i < pods.size(); ++i) {
    EXPECT_EQ(got[i].key, pods[i].key) << "record " << i;
  }
  EXPECT_EQ(stats.snapshot().bytes_written, pods.size() * sizeof(Pod));
}

TEST(AsyncRecordWriter, SplitsLargeWritesIntoWholeBlocks) {
  // One write of 2.5 blocks goes out as blocks of 100, 100 and 50 records:
  // staging never grows past one block.
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  const auto pods = make_pods(250);
  AsyncRecordWriter<Pod> writer(dir.file("async.bin"), stats, 100, 2);
  writer.write(std::span<const Pod>(pods));
  writer.close();
  EXPECT_EQ(stats.write_ops(), 3u);
  EXPECT_EQ(stats.bytes_written(), pods.size() * sizeof(Pod));

  write_all_records<Pod>(dir.file("sync.bin"), pods);
  std::ifstream a(dir.file("async.bin"), std::ios::binary);
  std::ifstream b(dir.file("sync.bin"), std::ios::binary);
  EXPECT_TRUE(std::equal(std::istreambuf_iterator<char>(a),
                         std::istreambuf_iterator<char>(),
                         std::istreambuf_iterator<char>(b),
                         std::istreambuf_iterator<char>()));
}

TEST(AsyncRecordWriter, CloseIsIdempotentAndDtorAbandons) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  {
    AsyncRecordWriter<Pod> writer(dir.file("a.bin"), stats, 8, 1);
    writer.write_one(Pod{1, 2, 0});
    writer.close();
    writer.close();  // no-op
  }
  {
    // Destroyed without close(): must not hang or crash.
    AsyncRecordWriter<Pod> writer(dir.file("b.bin"), stats, 8, 1);
    writer.write_one(Pod{3, 4, 0});
  }
  EXPECT_EQ(read_all_records<Pod>(dir.file("a.bin"), stats).size(), 1u);
}

TEST(AsyncRecordWriter, WriteFailurePropagatesOnClose) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  IoStats stats;
  AsyncRecordWriter<Pod> writer("/dev/full", stats, 64, 1);
  try {
    // Well past the stdio buffer, so the worker's fwrite actually hits the
    // device; the failure surfaces on a later write() (backpressure) or on
    // close().
    const auto pods = make_pods(512);
    for (int i = 0; i < 32; ++i) writer.write(std::span<const Pod>(pods));
    writer.close();
    FAIL() << "expected a write error from /dev/full";
  } catch (const std::exception&) {
    SUCCEED();
  }
}

TEST(AsyncRecordWriter, DepthZeroWritesThrough) {
  ScopedTempDir dir("lasagna-test");
  IoStats stats;
  const auto pods = make_pods(100);
  AsyncRecordWriter<Pod> writer(dir.file("sync.bin"), stats, 64, 0);
  writer.write(std::span<const Pod>(pods).first(10));
  EXPECT_EQ(stats.snapshot().bytes_written, 10 * sizeof(Pod));
  writer.write(std::span<const Pod>(pods).subspan(10));
  writer.close();
  EXPECT_EQ(stats.write_ops(), 2u);  // one per call, no restaging
  EXPECT_EQ(read_all_records<Pod>(dir.file("sync.bin"), stats).size(), 100u);
}

}  // namespace
}  // namespace lasagna::io

namespace lasagna::util {
namespace {

/// A Prefetch over the integers [0, n).
std::unique_ptr<Prefetch<int>> count_to(int n, std::size_t depth) {
  return std::make_unique<Prefetch<int>>(
      [n, i = 0](int& item) mutable {
        if (i == n) return false;
        item = i++;
        return true;
      },
      depth);
}

TEST(BackgroundStage, KeepsOrderAtEveryDepth) {
  for (std::size_t depth : {0u, 1u, 3u}) {
    auto source = count_to(200, depth);
    std::vector<int> drained;
    Drain<int> sink([&drained](int& item) { drained.push_back(item); },
                    depth);
    int item = 0;
    int expected = 0;
    while (source->next(item)) {
      EXPECT_EQ(item, expected++) << "depth " << depth;
      sink.submit(item);
    }
    EXPECT_EQ(expected, 200) << "depth " << depth;
    EXPECT_FALSE(source->next(item)) << "depth " << depth;
    sink.finish();
    ASSERT_EQ(drained.size(), 200u) << "depth " << depth;
    for (int i = 0; i < 200; ++i) EXPECT_EQ(drained[i], i);
  }
}

TEST(BackgroundStage, ProducerErrorArrivesAfterEarlierItems) {
  for (std::size_t depth : {0u, 1u, 3u}) {
    Prefetch<int> source(
        [i = 0](int& item) mutable {
          if (i == 5) throw std::runtime_error("producer failed");
          item = i++;
          return true;
        },
        depth);
    int item = 0;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(source.next(item)) << "depth " << depth;
      EXPECT_EQ(item, i);
    }
    EXPECT_THROW(source.next(item), std::runtime_error) << "depth " << depth;
  }
}

TEST(BackgroundStage, ConsumerErrorSurfacesOnSubmitAndFinish) {
  Drain<int> sink([](int&) { throw std::runtime_error("consumer failed"); },
                  1);
  // The first item is accepted; by the third, the one slot is taken and
  // submit() waits until the consumer's failure is visible.
  EXPECT_THROW(
      {
        for (int i = 0; i < 3; ++i) sink.submit(i);
      },
      std::runtime_error);
  EXPECT_THROW(sink.submit(3), std::runtime_error);
  EXPECT_THROW(sink.finish(), std::runtime_error);
}

TEST(BackgroundStage, DestructionAbandonsQueuedWork) {
  std::atomic<int> consumed{0};
  std::promise<void> started;
  {
    Drain<int> sink(
        [&](int& item) {
          if (item == 0) {
            started.set_value();
            // Hold item 0 until the destructor has asked the thread to stop.
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
          }
          ++consumed;
        },
        1);
    sink.submit(0);
    started.get_future().wait();
    sink.submit(1);  // queued behind the busy consumer
  }
  EXPECT_EQ(consumed.load(), 1);

  std::atomic<int> produced{0};
  {
    Prefetch<int> endless(
        [&produced](int& item) {
          item = produced++;
          return true;
        },
        2);
    int item = 0;
    ASSERT_TRUE(endless.next(item));
  }
  // One taken, two queued, one in the producer's hand when it stopped.
  EXPECT_LE(produced.load(), 4);
}

TEST(BackgroundStage, DepthZeroRunsOnTheCallersThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t depth : {0u, 1u}) {
    std::thread::id producer_thread;
    std::thread::id consumer_thread;
    Prefetch<int> source(
        [&producer_thread](int& item) {
          producer_thread = std::this_thread::get_id();
          item = 1;
          return true;
        },
        depth);
    Drain<int> sink(
        [&consumer_thread](int&) {
          consumer_thread = std::this_thread::get_id();
        },
        depth);
    int item = 0;
    ASSERT_TRUE(source.next(item));
    sink.submit(item);
    sink.finish();
    EXPECT_EQ(consumer_thread == caller, depth == 0) << "depth " << depth;
    if (depth == 0) {
      EXPECT_EQ(producer_thread, caller);
    }
  }
}

TEST(BackgroundStage, ConcurrentSubmitsRunEachItemOnce) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  for (std::size_t depth : {std::size_t{0}, std::size_t{2}, kUnboundedDepth}) {
    std::vector<int> seen(kThreads * kPerThread, 0);
    Drain<int> sink([&seen](int& item) { ++seen[item]; }, depth);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&sink, t] {
        for (int i = 0; i < kPerThread; ++i) sink.submit(t * kPerThread + i);
      });
    }
    for (auto& thread : submitters) thread.join();
    sink.finish();
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "item " << i << ", depth " << depth;
    }
  }
}

}  // namespace
}  // namespace lasagna::util
