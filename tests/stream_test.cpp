// Modeled-stream semantics: per-stream timelines, event ordering, the
// default-stream compatibility guarantee, and primitives charging the
// stream they are passed.
#include <gtest/gtest.h>

#include <vector>

#include "gpu/device.hpp"
#include "gpu/primitives.hpp"
#include "gpu/profile.hpp"
#include "gpu/stream.hpp"

namespace lasagna::gpu {
namespace {

Device small_device(std::uint64_t capacity = 64ull << 20) {
  return Device(GpuProfile::k40(), capacity);
}

TEST(Stream, DefaultStreamSumsLikeLegacyClock) {
  // With only the default stream, modeled_seconds() must reproduce the old
  // single-counter behaviour: every charge adds up.
  Device dev = small_device();
  const Stream s = default_stream(dev);
  s.charge_transfer(1 << 20);
  const double after_one = dev.modeled_seconds();
  EXPECT_GT(after_one, 0.0);
  s.charge_transfer(1 << 20);
  EXPECT_NEAR(dev.modeled_seconds(), 2.0 * after_one, 1e-12);
  s.charge_kernel(1 << 20, 1 << 20);
  EXPECT_GT(dev.modeled_seconds(), 2.0 * after_one);
  EXPECT_EQ(dev.stream_count(), 1u);
}

TEST(Stream, IndependentStreamsOverlap) {
  Device dev = small_device();
  Stream s1 = create_stream(dev);
  Stream s2 = create_stream(dev);
  s1.charge_transfer(4 << 20);
  s2.charge_transfer(1 << 20);
  // The two transfers overlap: the device finishes when the longer one does.
  EXPECT_NEAR(dev.modeled_seconds(), s1.seconds(), 1e-15);
  EXPECT_GT(s1.seconds(), s2.seconds());
  EXPECT_EQ(dev.stream_count(), 3u);
}

TEST(Stream, EventSerializesDependentStream) {
  Device dev = small_device();
  Stream s1 = create_stream(dev);
  Stream s2 = create_stream(dev);
  s1.charge_kernel(1 << 20, 1 << 22);
  const double t_a = s1.seconds();

  s2.wait(s1.record());  // s2's next work starts after s1's
  s2.charge_kernel(1 << 20, 1 << 22);
  const double t_b = s2.seconds() - t_a;
  EXPECT_GT(t_b, 0.0);
  EXPECT_NEAR(s2.seconds(), t_a + t_b, 1e-15);
  EXPECT_NEAR(dev.modeled_seconds(), t_a + t_b, 1e-15);
}

TEST(Stream, WaitOnPastEventIsNoop) {
  Device dev = small_device();
  Stream s1 = create_stream(dev);
  s1.charge_transfer(4 << 20);
  const Event early = s1.record();
  s1.charge_transfer(4 << 20);
  const double before = s1.seconds();
  s1.wait(early);  // already elapsed on this stream
  EXPECT_DOUBLE_EQ(s1.seconds(), before);
}

TEST(Stream, NewStreamJoinsAtCurrentFrontier) {
  // Sequential phases must stay additive: a stream created after serial
  // work starts at the device frontier, not at zero.
  Device dev = small_device();
  default_stream(dev).charge_transfer(8 << 20);  // serial prologue
  const double prologue = dev.modeled_seconds();
  Stream s = create_stream(dev);
  EXPECT_NEAR(s.seconds(), prologue, 1e-15);
  s.charge_transfer(1 << 20);
  EXPECT_GT(dev.modeled_seconds(), prologue);
}

TEST(Stream, PrimitiveChargesLandOnThePassedStream) {
  Device dev = small_device();
  Stream s = create_stream(dev);
  const std::vector<Key128> keys{{3, 0}, {1, 0}, {2, 0}};
  default_stream(dev).charge_transfer(keys.size() * sizeof(Key128));
  const double default_after_copy =
      dev.stream_seconds(Device::kDefaultStream);
  const double s_before = s.seconds();
  charge_sort_pairs(s, keys);
  // The kernel charges landed on s, not on the default stream.
  EXPECT_DOUBLE_EQ(dev.stream_seconds(Device::kDefaultStream),
                   default_after_copy);
  EXPECT_GT(s.seconds(), s_before);
}

TEST(Stream, UnknownStreamIdThrows) {
  Device dev = small_device();
  EXPECT_THROW(dev.charge_transfer_on(42, 1024), std::logic_error);
  EXPECT_THROW(Stream(dev, 42).charge_kernel(1024, 1024), std::logic_error);
}

}  // namespace
}  // namespace lasagna::gpu
