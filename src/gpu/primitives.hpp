// Thrust-style device primitives used by the pipeline:
//   - charge_sort_pairs: LSD radix sort of (Key128, u64) pairs
//   - exclusive_scan:    exclusive prefix sum
//   - charge_bound:      batched lower_bound/upper_bound (Algorithm 2,
//                        lines 8-9)
//   - gather:            permutation copy (contig layout, section III-D)
//   - charge_merge:      merge-path merge of two sorted runs
//
// Each primitive charges the stream it is passed according to the bytes it
// moves and the operations it performs, so modeled timings reflect what a
// Thrust implementation of the same operation costs on the profiled GPU.
// The scan and the gather also compute their result on the host; the
// `charge_` primitives only charge, and their caller computes the result
// with a host kernel (kernel/backend.hpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "gpu/device.hpp"
#include "gpu/key128.hpp"
#include "gpu/stream.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::gpu {

/// Charges `stream` a stable LSD radix sort of `keys` with u64 values
/// permuted alongside. Allocates the sort's double buffer on the stream's
/// device while it charges, so the caller must leave >= keys.size() *
/// (sizeof(Key128) + sizeof(u64)) bytes free.
inline void charge_sort_pairs(Stream stream, std::span<const Key128> keys) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  constexpr std::uint64_t kPairBytes = sizeof(Key128) + sizeof(std::uint64_t);
  const auto tmp_keys = stream.device().alloc<Key128>(n);
  const auto tmp_vals = stream.device().alloc<std::uint64_t>(n);

  // One pre-pass builds all 16 digit histograms so degenerate passes
  // (every key shares the digit) can be skipped without touching data.
  stream.charge_kernel(n * sizeof(Key128), n * Key128::kDigits);
  // The bits where some key differs from the first: every key shares each
  // digit whose byte is zero here.
  Key128 differs;
  for (const Key128& k : keys) {
    differs.hi |= k.hi ^ keys[0].hi;
    differs.lo |= k.lo ^ keys[0].lo;
  }

  unsigned passes = 0;
  for (unsigned d = 0; d < Key128::kDigits; ++d) {
    if (differs.digit(d) == 0) continue;
    // Radix-sort passes are bandwidth-bound with heavy amplification:
    // besides the read + scattered write of keys and values, the scatter's
    // poor coalescing and the histogram traffic cost several extra
    // effective passes over the data (sustained radix-sort throughputs on
    // real GPUs are a small fraction of peak bandwidth).
    constexpr std::uint64_t kPassAmplification = 8;
    stream.charge_kernel(kPassAmplification * n * kPairBytes, 2 * n);
    ++passes;
  }
  // An odd pass count leaves the result in the double buffer.
  if (passes % 2 == 1) stream.charge_kernel(2 * n * kPairBytes, n);
}

/// Charges `stream` what a merge-path merge of `n` records of type R costs
/// on the device: every record read and written once, one compare per
/// output plus 64 per partition (one per 4,096 records, 1 to 32) for the
/// split searches.
template <typename R>
void charge_merge(Stream stream, std::size_t n) {
  const std::size_t partitions = std::clamp<std::size_t>(n / 4096, 1, 32);
  stream.charge_kernel(2 * n * sizeof(R), n + partitions * 64);
}

/// Exclusive prefix sum; `out` may alias `in`. Returns the total.
template <typename T>
T exclusive_scan(Stream stream, std::span<const T> in, std::span<T> out) {
  if (out.size() != in.size()) {
    throw std::invalid_argument("exclusive_scan: size mismatch");
  }
  T running{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    const T v = in[i];
    out[i] = running;
    running += v;
  }
  stream.charge_kernel(2 * in.size() * sizeof(T), 2 * in.size());
  return running;
}

/// Charges `stream` one batched binary search (a vectorized lower_bound or
/// upper_bound) of `needles` keys in a sorted haystack of `haystack` keys:
/// each needle reads its key, writes its u32 index and probes the haystack
/// log2 times.
inline void charge_bound(Stream stream, std::size_t needles,
                         std::size_t haystack) {
  const std::uint64_t probes = std::bit_width(haystack | 1);
  stream.charge_kernel(
      needles * (sizeof(Key128) + sizeof(std::uint32_t)) +
          needles * probes * sizeof(Key128),
      needles * probes);
}

/// out[i] = src[indices[i]].
template <typename T, typename I>
void gather(Stream stream, std::span<const T> src, std::span<const I> indices,
            std::span<T> out) {
  if (out.size() != indices.size()) {
    throw std::invalid_argument("gather: size mismatch");
  }
  util::ThreadPool::global().parallel_for_chunked(
      indices.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = src[static_cast<std::size_t>(indices[i])];
        }
      });
  stream.charge_kernel(indices.size() * (2 * sizeof(T) + sizeof(I)),
                       indices.size());
}

}  // namespace lasagna::gpu
