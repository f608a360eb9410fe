#include "kernel/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "gpu/device.hpp"
#include "kernel/dump.hpp"
#include "util/modmath.hpp"

namespace lasagna::kernel {

namespace {

using Clock = std::chrono::steady_clock;
using gpu::Key128;

void require(bool ok, const char* what) {
  if (!ok) {
    throw std::runtime_error(std::string("kernel dump record malformed: ") +
                             what);
  }
}

/// A meta word read as an element count. No checksum covers the meta
/// words, so the count must fit 32 bits and leave room for that many
/// `element_bytes` elements in the blob's `bytes` before any size product
/// is formed: a product of unchecked words can wrap past the blob check.
std::size_t checked_count(std::uint64_t word, std::size_t bytes,
                          std::size_t element_bytes, const char* what) {
  require(word <= UINT32_MAX && word <= bytes / element_bytes, what);
  return static_cast<std::size_t>(word);
}

template <typename T>
std::span<const T> view_as(std::span<const std::byte> bytes,
                           std::size_t offset, std::size_t count) {
  return {reinterpret_cast<const T*>(bytes.data() + offset), count};
}

std::vector<std::uint64_t> build_pow(std::uint64_t radix,
                                     std::uint64_t modulus, std::size_t n) {
  std::vector<std::uint64_t> pow(n);
  std::uint64_t p = 1 % modulus;
  for (std::size_t i = 0; i < n; ++i) {
    pow[i] = p;
    p = util::mulmod(p, radix, modulus);
  }
  return pow;
}

/// Replay one fingerprint record; returns the produced output blob.
std::vector<std::byte> replay_fingerprint(const DumpRecord& rec,
                                          Backend& backend,
                                          DeviceContext& ctx,
                                          std::uint64_t& elements,
                                          double& wall_seconds) {
  // Every read has a u16 length in the blob, which bounds the count, and
  // no read, so no stride, is longer than a u16 can say.
  const std::size_t count = checked_count(
      rec.meta[0], rec.input.size(), sizeof(std::uint16_t),
      "fingerprint count");
  require(rec.meta[1] <= UINT16_MAX, "fingerprint stride");
  const auto stride = static_cast<unsigned>(rec.meta[1]);
  const std::size_t total = count * stride;
  require(rec.input.size() == total + count * sizeof(std::uint16_t),
          "fingerprint input size");
  require(rec.output.size() == 2 * total * sizeof(Key128),
          "fingerprint output size");

  FingerprintJob job;
  job.count = static_cast<unsigned>(count);
  job.stride = stride;
  job.codes = view_as<std::uint8_t>(rec.input, 0, total);
  job.lengths = view_as<std::uint16_t>(rec.input, total, count);
  job.primary = {rec.meta[2], rec.meta[3]};
  job.secondary = {rec.meta[4], rec.meta[5]};
  require(job.primary.modulus != 0 && job.secondary.modulus != 0,
          "fingerprint modulus");

  std::uint64_t valid = 0;
  std::size_t longest = 0;
  for (const std::uint16_t len : job.lengths) {
    require(len <= stride, "fingerprint read length");
    valid += len;
    longest = std::max<std::size_t>(longest, len);
  }
  elements = 2 * valid;  // one prefix + one suffix fingerprint per base

  // Place values for the longest read, which the codes blob holds: sized
  // by the stride, a record of no reads could still ask for 2 x 64 Ki.
  const auto pow_a =
      build_pow(job.primary.radix, job.primary.modulus, longest + 1);
  const auto pow_b =
      build_pow(job.secondary.radix, job.secondary.modulus, longest + 1);
  job.pow_primary = pow_a;
  job.pow_secondary = pow_b;

  std::vector<Key128> prefix(total);
  std::vector<Key128> suffix(total);
  job.prefix = prefix.data();
  job.suffix = suffix.data();

  const auto t0 = Clock::now();
  backend.fingerprint(job, &ctx);
  wall_seconds += std::chrono::duration<double>(Clock::now() - t0).count();

  return concat_bytes({std::as_bytes(std::span<const Key128>(prefix)),
                       std::as_bytes(std::span<const Key128>(suffix))});
}

std::vector<std::byte> replay_match_bounds(const DumpRecord& rec,
                                           Backend& backend,
                                           DeviceContext& ctx,
                                           std::uint64_t& elements,
                                           double& wall_seconds) {
  const std::size_t nn = checked_count(rec.meta[0], rec.input.size(),
                                       sizeof(Key128), "match_bounds count");
  const std::size_t nh =
      checked_count(rec.meta[1], rec.input.size() - nn * sizeof(Key128),
                    sizeof(Key128), "match_bounds count");
  require(rec.input.size() == (nn + nh) * sizeof(Key128),
          "match_bounds input size");
  require(rec.output.size() == 2 * nn * sizeof(std::uint32_t),
          "match_bounds output size");
  const auto needles = view_as<Key128>(rec.input, 0, nn);
  const auto haystack = view_as<Key128>(rec.input, nn * sizeof(Key128), nh);
  elements = nn;

  std::vector<std::uint32_t> lower(nn);
  std::vector<std::uint32_t> upper(nn);
  const auto t0 = Clock::now();
  backend.match_bounds(needles, haystack, lower, upper, &ctx);
  wall_seconds += std::chrono::duration<double>(Clock::now() - t0).count();

  return concat_bytes(
      {std::as_bytes(std::span<const std::uint32_t>(lower)),
       std::as_bytes(std::span<const std::uint32_t>(upper))});
}

std::vector<std::byte> replay_sort_pairs(const DumpRecord& rec,
                                         Backend& backend, DeviceContext& ctx,
                                         std::uint64_t& elements,
                                         double& wall_seconds) {
  const std::size_t n =
      checked_count(rec.meta[0], rec.input.size(),
                    sizeof(Key128) + sizeof(std::uint64_t), "sort_pairs count");
  require(rec.input.size() == n * (sizeof(Key128) + sizeof(std::uint64_t)),
          "sort_pairs input size");
  require(rec.output.size() == rec.input.size(), "sort_pairs output size");
  elements = n;

  std::vector<Key128> keys(n);
  std::vector<std::uint64_t> values(n);
  std::memcpy(keys.data(), rec.input.data(), n * sizeof(Key128));
  std::memcpy(values.data(), rec.input.data() + n * sizeof(Key128),
              n * sizeof(std::uint64_t));

  const auto t0 = Clock::now();
  backend.sort_pairs(keys, values, &ctx);
  wall_seconds += std::chrono::duration<double>(Clock::now() - t0).count();

  return concat_bytes(
      {std::as_bytes(std::span<const Key128>(keys)),
       std::as_bytes(std::span<const std::uint64_t>(values))});
}

}  // namespace

ReplayReport replay_dump(const std::filesystem::path& dir, Backend& backend,
                         std::size_t repeat) {
  if (repeat == 0) repeat = 1;
  ReplayReport report;
  // The simulated backend replays on a fresh device so its modeled clock
  // is attributable to the dump alone.
  gpu::Device device;
  DeviceContext ctx{&device, nullptr, false};

  for (const KernelId id : {KernelId::kFingerprint, KernelId::kMatchBounds,
                            KernelId::kSortPairs}) {
    const auto path = dir / dump_filename(id);
    if (!std::filesystem::exists(path)) continue;

    KernelReplayStats stats;
    stats.kernel = id;
    for (std::size_t pass = 0; pass < repeat; ++pass) {
      DumpReader reader(path);
      DumpRecord rec;
      const double modeled_before = device.modeled_seconds();
      while (reader.next(rec)) {
        std::uint64_t elements = 0;
        std::vector<std::byte> produced;
        switch (id) {
          case KernelId::kFingerprint:
            produced = replay_fingerprint(rec, backend, ctx, elements,
                                          stats.wall_seconds);
            break;
          case KernelId::kMatchBounds:
            produced = replay_match_bounds(rec, backend, ctx, elements,
                                           stats.wall_seconds);
            break;
          case KernelId::kSortPairs:
            produced = replay_sort_pairs(rec, backend, ctx, elements,
                                         stats.wall_seconds);
            break;
        }
        ++stats.replayed;
        if (pass == 0) {
          ++stats.records;
          stats.elements += elements;
          stats.bytes += rec.input.size() + rec.output.size();
          if (produced.size() != rec.output.size() ||
              std::memcmp(produced.data(), rec.output.data(),
                          produced.size()) != 0) {
            ++stats.mismatched;
          }
        }
      }
      stats.modeled_seconds += device.modeled_seconds() - modeled_before;
    }
    report.kernels.push_back(stats);
  }
  if (report.kernels.empty()) {
    throw std::runtime_error("no kernel dump files found in: " +
                             dir.string());
  }
  return report;
}

}  // namespace lasagna::kernel
