// Thrust-style device primitives used by the pipeline:
//   - sort_pairs:     LSD radix sort of (Key128, value) pairs
//   - exclusive_scan: exclusive prefix sum
//   - vector bounds:  batched lower_bound/upper_bound (Algorithm 2, lines 8-9)
//   - gather:         permutation copy (contig layout, section III-D)
//
// Each primitive executes for real on the host *and* charges the stream it
// is passed according to the bytes it moves and the operations it
// performs, so modeled timings reflect what a Thrust implementation of the
// same operation costs on the profiled GPU.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "gpu/device.hpp"
#include "gpu/key128.hpp"
#include "gpu/stream.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::gpu {

namespace detail {

/// Number of parallel partitions used by the block-structured primitives.
inline std::size_t partition_count(std::size_t n) {
  // Enough to keep any host pool busy while bounding histogram memory.
  const std::size_t kMax = 32;
  return std::clamp<std::size_t>(n / 4096, 1, kMax);
}

}  // namespace detail

/// In-place stable LSD radix sort of `keys` with `values` permuted alongside.
/// Allocates one double-buffer of the same size on the stream's device, so
/// the caller must leave >= keys.size() * (sizeof(Key128)+sizeof(V)) bytes
/// free.
template <typename V>
void sort_pairs(Stream stream, std::span<Key128> keys, std::span<V> values) {
  const std::size_t n = keys.size();
  if (values.size() != n) {
    throw std::invalid_argument("sort_pairs: key/value size mismatch");
  }
  if (n < 2) return;

  auto tmp_keys = stream.device().alloc<Key128>(n);
  auto tmp_vals = stream.device().alloc<V>(n);

  auto& pool = util::ThreadPool::global();
  const std::size_t parts = detail::partition_count(n);
  const std::size_t step = (n + parts - 1) / parts;

  // One pre-pass builds all 16 digit histograms so degenerate passes
  // (every key shares the digit) can be skipped without touching data.
  std::array<std::array<std::uint64_t, 256>, Key128::kDigits> global{};
  {
    std::vector<decltype(global)> local(parts);
    pool.parallel_for_chunked(parts, [&](std::size_t pb, std::size_t pe) {
      for (std::size_t p = pb; p < pe; ++p) {
        const std::size_t begin = p * step;
        const std::size_t end = std::min(n, begin + step);
        auto& h = local[p];
        for (std::size_t i = begin; i < end; ++i) {
          for (unsigned d = 0; d < Key128::kDigits; ++d) {
            ++h[d][keys[i].digit(d)];
          }
        }
      }
    });
    for (const auto& h : local) {
      for (unsigned d = 0; d < Key128::kDigits; ++d) {
        for (unsigned b = 0; b < 256; ++b) global[d][b] += h[d][b];
      }
    }
    stream.charge_kernel(n * sizeof(Key128), n * Key128::kDigits);
  }

  Key128* src_k = keys.data();
  V* src_v = values.data();
  Key128* dst_k = tmp_keys.data();
  V* dst_v = tmp_vals.data();

  for (unsigned d = 0; d < Key128::kDigits; ++d) {
    // Skip passes where all keys fall into a single bucket.
    bool degenerate = false;
    for (unsigned b = 0; b < 256; ++b) {
      if (global[d][b] == n) {
        degenerate = true;
        break;
      }
    }
    if (degenerate) continue;

    // Per-partition digit counts on the *current* ordering.
    std::vector<std::array<std::uint64_t, 256>> counts(parts);
    pool.parallel_for_chunked(parts, [&](std::size_t pb, std::size_t pe) {
      for (std::size_t p = pb; p < pe; ++p) {
        const std::size_t begin = p * step;
        const std::size_t end = std::min(n, begin + step);
        auto& c = counts[p];
        c.fill(0);
        for (std::size_t i = begin; i < end; ++i) ++c[src_k[i].digit(d)];
      }
    });

    // Exclusive scan over (digit, partition) gives stable scatter bases.
    std::vector<std::array<std::uint64_t, 256>> bases(parts);
    std::uint64_t running = 0;
    for (unsigned b = 0; b < 256; ++b) {
      for (std::size_t p = 0; p < parts; ++p) {
        bases[p][b] = running;
        running += counts[p][b];
      }
    }

    pool.parallel_for_chunked(parts, [&](std::size_t pb, std::size_t pe) {
      for (std::size_t p = pb; p < pe; ++p) {
        const std::size_t begin = p * step;
        const std::size_t end = std::min(n, begin + step);
        auto offsets = bases[p];
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t at = offsets[src_k[i].digit(d)]++;
          dst_k[at] = src_k[i];
          dst_v[at] = src_v[i];
        }
      }
    });

    // Radix-sort passes are bandwidth-bound with heavy amplification:
    // besides the read + scattered write of keys and values, the scatter's
    // poor coalescing and the histogram traffic cost several extra
    // effective passes over the data (sustained radix-sort throughputs on
    // real GPUs are a small fraction of peak bandwidth).
    constexpr std::uint64_t kPassAmplification = 8;
    stream.charge_kernel(
        kPassAmplification * n * (sizeof(Key128) + sizeof(V)), 2 * n);
    std::swap(src_k, dst_k);
    std::swap(src_v, dst_v);
  }

  if (src_k != keys.data()) {
    std::copy(src_k, src_k + n, keys.data());
    std::copy(src_v, src_v + n, values.data());
    stream.charge_kernel(2 * n * (sizeof(Key128) + sizeof(V)), n);
  }
}

/// Charges `stream` what a merge-path merge of `n` records of type R costs
/// on the device: every record read and written once, one compare per
/// output plus 64 per partition for the split searches.
template <typename R>
void charge_merge(Stream stream, std::size_t n) {
  stream.charge_kernel(2 * n * sizeof(R),
                       n + detail::partition_count(n) * 64);
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

/// For each needle, index of the first haystack element >= needle.
inline void vector_lower_bound(Stream stream,
                               std::span<const Key128> needles,
                               std::span<const Key128> haystack,
                               std::span<std::uint32_t> out) {
  if (out.size() != needles.size()) {
    throw std::invalid_argument("vector_lower_bound: size mismatch");
  }
  util::ThreadPool::global().parallel_for_chunked(
      needles.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = static_cast<std::uint32_t>(
              std::lower_bound(haystack.begin(), haystack.end(), needles[i]) -
              haystack.begin());
        }
      });
  const std::uint64_t probes =
      haystack.empty() ? 1 : 64 - std::countl_zero(haystack.size() | 1);
  stream.charge_kernel(
      needles.size() * (sizeof(Key128) + sizeof(std::uint32_t)) +
          needles.size() * probes * sizeof(Key128),
      needles.size() * probes);
}

/// For each needle, index of the first haystack element > needle.
inline void vector_upper_bound(Stream stream,
                               std::span<const Key128> needles,
                               std::span<const Key128> haystack,
                               std::span<std::uint32_t> out) {
  if (out.size() != needles.size()) {
    throw std::invalid_argument("vector_upper_bound: size mismatch");
  }
  util::ThreadPool::global().parallel_for_chunked(
      needles.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = static_cast<std::uint32_t>(
              std::upper_bound(haystack.begin(), haystack.end(), needles[i]) -
              haystack.begin());
        }
      });
  const std::uint64_t probes =
      haystack.empty() ? 1 : 64 - std::countl_zero(haystack.size() | 1);
  stream.charge_kernel(
      needles.size() * (sizeof(Key128) + sizeof(std::uint32_t)) +
          needles.size() * probes * sizeof(Key128),
      needles.size() * probes);
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
