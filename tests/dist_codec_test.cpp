// On-wire codec and topology-aware network lane tests. The codec must be
// a pure byte-for-byte round trip for arbitrary payloads (compression may
// never perturb shuffle content), must actually compress the record
// streams the shuffle pushes, must never expand a payload past one tag
// byte, and must turn any damaged payload into bytes or a typed error. The
// link model must cap paths at the NIC, slow down across racks, and
// serialize incast on the receiver's clock.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include "core/config.hpp"
#include "dist/active_message.hpp"
#include "dist/codec.hpp"
#include "dist/topology.hpp"
#include "util/fnv.hpp"

namespace lasagna::dist {
namespace {

using codec::decode_chunk;
using codec::encode_chunk;
using codec::encode_raw;

/// The LEB128 varint the codec writes its sizes in.
std::vector<std::byte> varint(std::uint64_t v) {
  std::vector<std::byte> out;
  for (; v >= 0x80; v >>= 7) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
  }
  out.push_back(static_cast<std::byte>(v));
  return out;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng() % 256);
  return out;
}

/// A realistic shuffle chunk: sorted-ish fingerprints, ascending vertex
/// ids in emission order, zero pad — the stream the delta method targets.
std::vector<std::byte> record_stream(std::size_t records,
                                     std::uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<core::FpRecord> recs(records);
  std::uint64_t hi = rng();
  for (std::size_t i = 0; i < records; ++i) {
    hi += rng() % 4096;
    recs[i].fp.hi = hi;
    recs[i].fp.lo = rng();
    recs[i].vertex = static_cast<std::uint32_t>(i * 2 + (rng() % 3));
    recs[i].pad = 0;
  }
  std::vector<std::byte> out(records * sizeof(core::FpRecord));
  std::memcpy(out.data(), recs.data(), out.size());
  return out;
}

/// Records with uniform fingerprints and vertex ids: every field's delta
/// is wide, so the delta body outgrows the raw payload.
std::vector<std::byte> unsorted_record_stream(std::size_t records,
                                              std::uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<core::FpRecord> recs(records);
  for (auto& r : recs) {
    r.fp.hi = rng();
    r.fp.lo = rng();
    r.vertex = static_cast<std::uint32_t>(rng());
    r.pad = 0;
  }
  std::vector<std::byte> out(records * sizeof(core::FpRecord));
  std::memcpy(out.data(), recs.data(), out.size());
  return out;
}

/// FNV-1a over each slice's encode_chunk output (its size, then its
/// bytes) for slices of `stream` starting at `phase`: empty, inside one
/// record, across a few records, and one full push chunk (256 KiB).
std::uint64_t wire_digest(const std::vector<std::byte>& stream,
                          std::size_t phase, codec::Method& last_method) {
  std::uint64_t h = util::fnv::kOffset;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{23}, std::size_t{25},
                              std::size_t{1000}, std::size_t{256 << 10}}) {
    const std::span<const std::byte> slice(stream.data() + phase, n);
    const codec::Payload wire = encode_chunk(slice, phase);
    EXPECT_EQ(decode_chunk(wire), codec::Payload(slice.begin(), slice.end()))
        << n << " @" << phase;
    h = util::fnv::fold_u64(h, wire.size());
    h = util::fnv::fold_bytes(h, wire.data(), wire.size());
    last_method = codec::method(wire);
  }
  return h;
}

TEST(Codec, WireBytesArePinned) {
  // The wire bytes feed the modeled network seconds and the recorded
  // bench baselines, so a codec rewrite must reproduce them byte for byte.
  // Sorted streams travel as delta, unsorted ones fall back to raw.
  const std::size_t records = (256 << 10) / 24 + 2;
  const std::vector<std::byte> sorted = record_stream(records, 41);
  const std::vector<std::byte> unsorted = unsorted_record_stream(records, 43);
  struct Pin {
    std::size_t phase;
    std::uint64_t sorted;
    std::uint64_t unsorted;
  };
  // Recorded from the byte-at-a-time codec this one replaced.
  for (const Pin& pin :
       {Pin{0, 0xa172b0f38125b20full, 0x0022e848b29f40e4ull},
        Pin{7, 0x669440e23b3a911eull, 0x4475b65ac7032b61ull},
        Pin{23, 0x0637224a9aff66c0ull, 0xd06e719584234f62ull}}) {
    codec::Method method = codec::Method::kRaw;
    EXPECT_EQ(wire_digest(sorted, pin.phase, method), pin.sorted)
        << "sorted @" << pin.phase;
    EXPECT_EQ(method, codec::Method::kDelta) << pin.phase;
    EXPECT_EQ(wire_digest(unsorted, pin.phase, method), pin.unsorted)
        << "unsorted @" << pin.phase;
    EXPECT_EQ(method, codec::Method::kRaw) << pin.phase;
  }
}

TEST(Codec, BadVarintsThrowInBothDecodeLoops) {
  // The decoder reads records without per-byte checks while a whole
  // record's worst case remains, and checked near the end: both loops must
  // reject what the other rejects.
  const auto delta_payload = [](std::size_t records) {
    codec::Payload p{static_cast<std::byte>(codec::Method::kDelta)};
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{records},
                                  std::uint64_t{0}}) {
      const std::vector<std::byte> bytes = varint(v);
      p.insert(p.end(), bytes.begin(), bytes.end());
    }
    return p;
  };
  // Twenty small records, the last one's final varint cut short.
  codec::Payload truncated = delta_payload(20);
  for (int i = 0; i < 20 * 4 - 1; ++i) truncated.push_back(std::byte{2});
  truncated.push_back(std::byte{0x81});
  EXPECT_THROW(decode_chunk(truncated), std::invalid_argument);
  truncated.back() = std::byte{0x01};
  EXPECT_EQ(decode_chunk(truncated).size(), 20u * 24);

  // An 11-byte varint in the first of twenty records, far from the end.
  codec::Payload eleven = delta_payload(20);
  for (int i = 0; i < 10; ++i) eleven.push_back(std::byte{0x80});
  eleven.push_back(std::byte{0});
  for (int i = 0; i < 20 * 4 - 1; ++i) eleven.push_back(std::byte{2});
  EXPECT_THROW(decode_chunk(eleven), std::invalid_argument);
  // Ten bytes is the limit: the same record with one byte less decodes.
  eleven.erase(eleven.begin() + 4);
  EXPECT_EQ(decode_chunk(eleven).size(), 20u * 24);
}

TEST(Codec, RoundTripsArbitraryBytesAtEveryPhase) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{23}, std::size_t{24},
                              std::size_t{25}, std::size_t{1000},
                              std::size_t{64 * 1024}}) {
    const std::vector<std::byte> logical = random_bytes(n, 7 + n);
    for (const std::size_t phase : {std::size_t{0}, std::size_t{7},
                                    std::size_t{23}}) {
      const codec::Payload wire = encode_chunk(logical, phase);
      EXPECT_EQ(decode_chunk(wire), logical) << n << " @" << phase;
      // Never more than the tag byte of overhead.
      EXPECT_LE(wire.size(), logical.size() + 1) << n << " @" << phase;
    }
  }
}

TEST(Codec, RoundTripsRecordStreams) {
  for (const std::size_t records : {std::size_t{1}, std::size_t{10},
                                    std::size_t{1000}}) {
    const std::vector<std::byte> logical = record_stream(records, 11);
    const codec::Payload wire = encode_chunk(logical, 0);
    EXPECT_EQ(decode_chunk(wire), logical) << records;
  }
}

TEST(Codec, CompressesSortedRecordStreams) {
  const std::vector<std::byte> logical = record_stream(4000, 13);
  const codec::Payload wire = encode_chunk(logical, 0);
  EXPECT_EQ(codec::method(wire), codec::Method::kDelta);
  EXPECT_LT(wire.size(), logical.size());
}

TEST(Codec, RoundTripsMisalignedRecordSlices) {
  // Chunks are cut at kShuffleChunkBytes, not record boundaries: a chunk
  // can start and end mid-record. The phase tells the codec where the
  // framing is.
  const std::vector<std::byte> stream = record_stream(100, 17);
  for (const std::size_t start : {std::size_t{5}, std::size_t{24},
                                  std::size_t{47}}) {
    const std::vector<std::byte> slice(stream.begin() + start,
                                       stream.end() - 3);
    const codec::Payload wire = encode_chunk(slice, start % 24);
    EXPECT_EQ(decode_chunk(wire), slice) << start;
  }
}

TEST(Codec, EncodeRawIsTaggedRawAndRoundTrips) {
  const std::vector<std::byte> logical = record_stream(100, 19);
  const codec::Payload wire = encode_raw(logical);
  EXPECT_EQ(codec::method(wire), codec::Method::kRaw);
  EXPECT_EQ(wire.size(), logical.size() + 1);
  EXPECT_EQ(decode_chunk(wire), logical);
}

TEST(Codec, MalformedPayloadsThrow) {
  EXPECT_THROW(decode_chunk({}), std::invalid_argument);
  codec::Payload bad_tag{std::byte{0x7f}};
  EXPECT_THROW(decode_chunk(bad_tag), std::invalid_argument);
  // Tag 2 is no method: delta and raw are the only encodings.
  codec::Payload tag2{std::byte{2}, std::byte{0}};
  EXPECT_THROW(decode_chunk(tag2), std::invalid_argument);
  EXPECT_THROW((void)codec::method(tag2), std::invalid_argument);
  // Truncating a compressed payload must be detected, not crash.
  const codec::Payload wire = encode_chunk(record_stream(1000, 23), 0);
  ASSERT_NE(codec::method(wire), codec::Method::kRaw);
  const std::span<const std::byte> truncated(wire.data(),
                                             wire.size() / 2);
  EXPECT_THROW(decode_chunk(truncated), std::invalid_argument);

  // Hostile sizes are rejected before the decoder sizes its output: the
  // delta tag, head_len, record count and tail_len, then 8 zero bytes. The
  // first count wraps count * 24 to 8 bytes.
  for (const auto& sizes :
       {std::initializer_list<std::uint64_t>{0, 0x0AAAAAAAAAAAAAABull, 0},
        {0, 1ull << 40, 0},
        {0, 3, 0},
        {0, 0, 1ull << 62},
        {1ull << 62, 0, 0}}) {
    codec::Payload hostile{static_cast<std::byte>(codec::Method::kDelta)};
    for (const std::uint64_t v : sizes) {
      const std::vector<std::byte> bytes = varint(v);
      hostile.insert(hostile.end(), bytes.begin(), bytes.end());
    }
    hostile.resize(hostile.size() + 8, std::byte{0});
    EXPECT_THROW(decode_chunk(hostile), std::invalid_argument);
  }
}

/// The parser contract on a damaged payload: decode_chunk returns bytes or
/// throws std::invalid_argument, and never returns more than 6x the wire
/// size (a delta record takes at least 4 wire bytes).
void expect_parses_or_rejects(std::span<const std::byte> wire,
                              const std::string& what) {
  try {
    const codec::Payload out = decode_chunk(wire);
    EXPECT_LE(out.size(), 6 * wire.size()) << what;
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
  }
}

TEST(Codec, SeededMutationsParseOrReject) {
  std::mt19937_64 rng(0x5eed);
  const std::vector<std::byte> stream = record_stream(64 * 1024 / 24 + 2, 29);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{23}, std::size_t{24},
        std::size_t{25}, std::size_t{100}, std::size_t{1000},
        std::size_t{4096}, std::size_t{64 * 1024}}) {
    for (const std::size_t phase : {std::size_t{0}, std::size_t{7},
                                    std::size_t{23}}) {
      const std::vector<std::byte> records(stream.begin() + phase,
                                           stream.begin() + phase + n);
      for (const auto& logical : {records, random_bytes(n, 31 + n)}) {
        const codec::Payload wire = encode_chunk(logical, phase);
        ASSERT_EQ(decode_chunk(wire), logical);
        const std::string at =
            std::to_string(n) + " @" + std::to_string(phase) + " method " +
            std::to_string(static_cast<int>(codec::method(wire)));
        auto pick = [&](std::size_t bound) {
          return static_cast<std::size_t>(rng() % bound);
        };
        for (int trial = 0; trial < 32; ++trial) {
          codec::Payload m = wire;
          m[pick(m.size())] ^= static_cast<std::byte>(1u << pick(8));
          expect_parses_or_rejects(m, at + " bit flip");
          m = wire;
          m[pick(m.size())] = static_cast<std::byte>(rng());
          expect_parses_or_rejects(m, at + " overwrite");
          expect_parses_or_rejects(
              std::span<const std::byte>(wire.data(), pick(wire.size())),
              at + " truncate");
          m = wire;
          for (std::size_t k = 1 + pick(16); k > 0; --k) {
            m.push_back(static_cast<std::byte>(rng()));
          }
          expect_parses_or_rejects(m, at + " tail");
        }
        if (codec::method(wire) != codec::Method::kDelta) continue;
        // Replace each of head_len, record count and tail_len with values
        // near every power of two.
        std::size_t begin = 1;
        for (int field = 0; field < 3; ++field) {
          std::size_t end = begin;
          while ((static_cast<std::uint8_t>(wire[end]) & 0x80) != 0) ++end;
          ++end;
          for (unsigned k = 0; k < 64; ++k) {
            for (const std::uint64_t v :
                 {(1ull << k) - 1, 1ull << k, (1ull << k) + 1}) {
              codec::Payload m(wire.begin(), wire.begin() + begin);
              const std::vector<std::byte> bytes = varint(v);
              m.insert(m.end(), bytes.begin(), bytes.end());
              m.insert(m.end(), wire.begin() + end, wire.end());
              expect_parses_or_rejects(m, at + " size field " +
                                              std::to_string(field) + " = " +
                                              std::to_string(v));
            }
          }
          begin = end;
        }
      }
    }
  }
}

TEST(Topology, EffectiveBandwidthAndLatencyFollowRacks) {
  ClusterTopology t;
  t.link_bandwidth_bytes_per_sec = 7e9;
  t.inter_rack_bandwidth_bytes_per_sec = 3.5e9;
  t.latency_seconds = 5e-6;
  t.inter_rack_latency_seconds = 1e-5;
  t.rack_size = 4;
  // Nodes 0..3 share a rack; 4 is in the next one.
  EXPECT_TRUE(t.same_rack(0, 3));
  EXPECT_FALSE(t.same_rack(3, 4));
  EXPECT_DOUBLE_EQ(t.effective_bandwidth(0, 3), 7e9);
  EXPECT_DOUBLE_EQ(t.effective_bandwidth(0, 4), 3.5e9);
  EXPECT_DOUBLE_EQ(t.effective_latency(0, 3), 5e-6);
  EXPECT_DOUBLE_EQ(t.effective_latency(0, 4), 1e-5);
  // Zero fields drop out; a fully unconstrained path is infinite.
  ClusterTopology open;
  EXPECT_TRUE(std::isinf(open.effective_bandwidth(0, 1)));
  // The paper clusters' fat tree: scaled 56 Gb/s links at 5 us in 16-node
  // racks, half the bandwidth and 10 us between racks.
  for (const double scale : {4096.0, 16384.0}) {
    const ClusterTopology f = ClusterTopology::fat_tree(scale);
    EXPECT_EQ(f.rack_size, 16u);
    EXPECT_TRUE(f.same_rack(0, 15));
    EXPECT_FALSE(f.same_rack(15, 16));
    EXPECT_EQ(f.effective_bandwidth(0, 15), 7e9 / scale);
    EXPECT_EQ(f.effective_bandwidth(0, 16), 3.5e9 / scale);
    EXPECT_EQ(f.effective_latency(0, 15), 5e-6);
    EXPECT_EQ(f.effective_latency(0, 16), 1e-5);
  }
}

TEST(Topology, IncastStacksOnReceiverClock) {
  // Three senders pushing 1 MB each into node 0: every sender's send
  // engine holds one transfer, node 0's receive engine holds all three.
  Network net(4, ClusterTopology::flat(1e6, 0.0));
  net.register_handler(0, 0, [](unsigned, std::span<const std::byte>) {
    return Payload{};
  });
  for (unsigned src = 1; src <= 3; ++src) {
    net.request(src, 0, 0, Payload(1'000'000));
  }
  EXPECT_NEAR(net.send_seconds(1), 1.0, 1e-9);
  EXPECT_NEAR(net.recv_seconds(0), 3.0, 1e-9);
  EXPECT_NEAR(net.modeled_seconds(0), 3.0, 1e-9);
  // Senders only paid for their own transfer.
  EXPECT_NEAR(net.modeled_seconds(1), 1.0, 1e-9);
}

TEST(Topology, InterRackTransfersCostMore) {
  ClusterTopology t = ClusterTopology::flat(1e6, 1e-4);
  t.rack_size = 2;
  t.inter_rack_bandwidth_bytes_per_sec = 5e5;
  t.inter_rack_latency_seconds = 1e-3;
  Network net(4, t);
  for (unsigned dst : {1u, 2u}) {
    net.register_handler(dst, 0, [](unsigned, std::span<const std::byte>) {
      return Payload{};
    });
  }
  net.request(0, 1, 0, Payload(100'000));  // same rack
  const double intra = net.send_seconds(0);
  net.reset_counters();
  net.request(0, 2, 0, Payload(100'000));  // across racks
  const double inter = net.send_seconds(0);
  EXPECT_NEAR(intra, 1e-4 + 0.1, 1e-9);
  EXPECT_NEAR(inter, 1e-3 + 0.2, 1e-9);
}

}  // namespace
}  // namespace lasagna::dist
