// The simulated-GPU backend: the paper's kernels executed on the simulated
// CUDA device (gpu::Device), charging its modeled clock. This is the
// reference implementation every other backend is byte-compared against,
// the one the pipeline uses by default, and the only simulated copy of the
// kernels: the pipeline, kernel_replay and bench_kernels all run this code.
//
// The fingerprint kernels are the block-per-read Hillis-Steele prefix scan
// + suffix derivation (paper Figs 5/6) and the naive thread-per-read
// rolling hash (charged the uncoalesced-transaction penalty the paper's
// "excessive memory throttling" corresponds to). match_bounds and
// sort_pairs wrap the device primitives (gpu/primitives.hpp). Every call
// is one StreamPair::round_trip on the caller's stream pair: H2D copies,
// the kernel (serialized after the last kernel on either leg), D2H copies,
// all charged on one leg.
#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "gpu/device.hpp"
#include "gpu/key128.hpp"
#include "gpu/primitives.hpp"
#include "gpu/stream.hpp"
#include "kernel/backend.hpp"
#include "util/modmath.hpp"

namespace lasagna::kernel {

namespace {

using fingerprint::HashParams;
using gpu::Key128;
using util::addmod;
using util::mulmod;
using util::submod;

/// The Hillis-Steele prefix scan for one hash function, executed inside one
/// block. `work` and `next` are shared-memory arrays of block_dim elements.
void block_prefix_scan(const gpu::BlockContext& ctx, unsigned len,
                       const HashParams& params,
                       std::span<const std::uint8_t> codes,
                       std::span<std::uint64_t> work,
                       std::span<std::uint64_t> next,
                       std::span<std::uint64_t> out) {
  const std::uint64_t q = params.modulus;

  // Phase 0: each thread encodes its base into shared memory (array E in
  // Fig 5 -- codes are already 0..3, so this is a plain load).
  ctx.for_each_thread([&](unsigned tid) {
    if (tid < len) work[tid] = codes[tid] % q;
  });

  // Doubling steps. M[offset] = sigma^offset mod q is recomputed per step
  // (cheap) rather than read from the device table, matching the shared-
  // memory-resident loop of the real kernel.
  std::uint64_t place = params.radix % q;  // sigma^offset for offset=1
  for (unsigned offset = 1; offset < len; offset <<= 1) {
    ctx.for_each_thread([&](unsigned tid) {
      if (tid >= len) return;
      next[tid] = tid >= offset
                      ? addmod(mulmod(work[tid - offset], place, q),
                               work[tid], q)
                      : work[tid];
    });
    std::swap(work, next);
    place = mulmod(place, place, q);  // sigma^(2*offset)
  }

  ctx.for_each_thread([&](unsigned tid) {
    if (tid < len) out[tid] = work[tid];
  });
}

/// Suffix fingerprints from prefix fingerprints (Fig 6):
///   S[0] = P[len-1];  S[i] = (P[len-1] - P[i-1] * sigma^(len-i)) mod q.
void block_suffix_from_prefix(const gpu::BlockContext& ctx, unsigned len,
                              const HashParams& params,
                              std::span<const std::uint64_t> pow,
                              std::span<const std::uint64_t> prefix,
                              std::span<std::uint64_t> out) {
  const std::uint64_t q = params.modulus;
  const std::uint64_t whole = prefix[len - 1];
  ctx.for_each_thread([&](unsigned tid) {
    if (tid >= len) return;
    if (tid == 0) {
      out[0] = whole;
      return;
    }
    out[tid] = submod(whole, mulmod(prefix[tid - 1], pow[len - tid], q), q);
  });
}

/// Runs one call as a StreamPair::round_trip on the caller's stream pair,
/// or on a local synchronous pair (both legs alias the default stream) when
/// the caller passes none.
template <typename Upload, typename Kernel, typename Download>
void on_next_leg(DeviceContext& ctx, Upload&& upload, Kernel&& kernel,
                 Download&& download) {
  gpu::StreamPair local(*ctx.device, /*dual=*/false);
  (ctx.streams != nullptr ? *ctx.streams : local)
      .round_trip(upload, kernel, download);
}

/// Device-resident fingerprint batch: the uploaded encoded reads (the
/// pipeline uploads reads, not fingerprints) and both output arrays.
struct DeviceBatch {
  gpu::DeviceBuffer<std::uint8_t> codes;
  gpu::DeviceBuffer<std::uint16_t> lengths;
  gpu::DeviceBuffer<Key128> prefix;
  gpu::DeviceBuffer<Key128> suffix;
};

void block_per_read_kernel(gpu::Stream leg, const FingerprintJob& job,
                           DeviceBatch& batch) {
  const unsigned stride = job.stride;
  const std::size_t total = static_cast<std::size_t>(job.count) * stride;

  // Shared memory per block: two double-buffered u64 arrays (work/next) plus
  // one output staging array per hash function.
  const std::size_t shared_bytes = static_cast<std::size_t>(stride) * 8 * 3;

  gpu::Device& dev = leg.device();
  dev.launch(job.count, stride, shared_bytes, [&](gpu::BlockContext& ctx) {
    const unsigned r = ctx.block_idx();
    const unsigned len = batch.lengths[r];
    if (len == 0) return;
    const std::span<const std::uint8_t> codes =
        batch.codes.span().subspan(static_cast<std::size_t>(r) * stride, len);
    auto work = ctx.shared_as<std::uint64_t>(3 * stride);
    auto buf0 = work.subspan(0, stride);
    auto buf1 = work.subspan(stride, stride);
    auto stage = work.subspan(2 * static_cast<std::size_t>(stride), stride);

    const std::size_t row = static_cast<std::size_t>(r) * stride;
    Key128* prefix_row = batch.prefix.data() + row;
    Key128* suffix_row = batch.suffix.data() + row;

    // Primary hash: prefix scan then suffix derivation.
    block_prefix_scan(ctx, len, job.primary, codes, buf0, buf1, stage);
    ctx.for_each_thread([&](unsigned tid) {
      if (tid < len) prefix_row[tid].hi = stage[tid];
    });
    block_suffix_from_prefix(ctx, len, job.primary, job.pow_primary, stage,
                             buf0);
    ctx.for_each_thread([&](unsigned tid) {
      if (tid < len) suffix_row[tid].hi = buf0[tid];
    });

    // Secondary hash.
    block_prefix_scan(ctx, len, job.secondary, codes, buf0, buf1, stage);
    ctx.for_each_thread([&](unsigned tid) {
      if (tid < len) prefix_row[tid].lo = stage[tid];
    });
    block_suffix_from_prefix(ctx, len, job.secondary, job.pow_secondary,
                             stage, buf0);
    ctx.for_each_thread([&](unsigned tid) {
      if (tid < len) suffix_row[tid].lo = buf0[tid];
    });
  });

  // Cost model: coalesced reads of the codes, coalesced writes of both
  // fingerprint arrays; ~2 modmul ops per element per doubling step per hash.
  const unsigned steps = stride <= 1 ? 1 : std::bit_width(stride - 1);
  leg.charge_kernel(total * (1 + 2 * sizeof(Key128)),
                    static_cast<std::uint64_t>(total) * steps * 2 * 2);
}

void thread_per_read_kernel(gpu::Stream leg, const FingerprintJob& job,
                            DeviceBatch& batch) {
  const unsigned stride = job.stride;
  const std::size_t total = static_cast<std::size_t>(job.count) * stride;

  // One thread handles one whole read with a sequential rolling hash; block
  // size is an arbitrary tiling of the read array.
  constexpr unsigned kBlock = 128;
  const unsigned blocks = (job.count + kBlock - 1) / kBlock;
  leg.device().launch(blocks, kBlock, 0, [&](gpu::BlockContext& ctx) {
    ctx.for_each_thread([&](unsigned tid) {
      const std::size_t r =
          static_cast<std::size_t>(ctx.block_idx()) * kBlock + tid;
      if (r >= job.count) return;
      const unsigned len = batch.lengths[r];
      const std::uint8_t* codes = batch.codes.data() + r * stride;
      Key128* prefix_row = batch.prefix.data() + r * stride;
      Key128* suffix_row = batch.suffix.data() + r * stride;

      std::uint64_t ha = 0;
      std::uint64_t hb = 0;
      for (unsigned i = 0; i < len; ++i) {
        ha = addmod(mulmod(ha, job.primary.radix, job.primary.modulus),
                    codes[i] % job.primary.modulus, job.primary.modulus);
        hb = addmod(mulmod(hb, job.secondary.radix, job.secondary.modulus),
                    codes[i] % job.secondary.modulus, job.secondary.modulus);
        prefix_row[i] = Key128{ha, hb};
      }
      std::uint64_t sa = 0;
      std::uint64_t sb = 0;
      for (unsigned i = len; i-- > 0;) {
        sa = addmod(mulmod(codes[i] % job.primary.modulus,
                           job.pow_primary[len - 1 - i],
                           job.primary.modulus),
                    sa, job.primary.modulus);
        sb = addmod(mulmod(codes[i] % job.secondary.modulus,
                           job.pow_secondary[len - 1 - i],
                           job.secondary.modulus),
                    sb, job.secondary.modulus);
        suffix_row[i] = Key128{sa, sb};
      }
    });
  });

  // Cost model: every access is strided by the read length, so transactions
  // are uncoalesced -- charge the 8x transaction-expansion penalty that the
  // paper's "excessive memory throttling" observation corresponds to.
  constexpr std::uint64_t kUncoalescedPenalty = 8;
  leg.charge_kernel(
      kUncoalescedPenalty * total * (1 + 2 * sizeof(Key128)),
      static_cast<std::uint64_t>(total) * 2 * 2);
}

/// `buffer` viewed as its first `n` elements, reallocated first (at
/// max(window, n) elements) when it holds fewer.
template <typename T>
std::span<T> reserve(gpu::Device& dev, gpu::DeviceBuffer<T>& buffer,
                     std::size_t window, std::size_t n) {
  if (buffer.size() < n) {
    buffer.reset();
    buffer = dev.alloc<T>(std::max(window, n));
  }
  return buffer.first(n);
}

class SimulatedBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override { return "simulated"; }
  [[nodiscard]] bool available() const override { return true; }
  [[nodiscard]] bool uses_device() const override { return true; }

  void fingerprint(const FingerprintJob& job, DeviceContext* ctx) override {
    gpu::Device& dev = require_device(ctx);
    if (job.count == 0) return;
    const std::size_t total =
        static_cast<std::size_t>(job.count) * job.stride;
    DeviceBatch batch{dev.alloc<std::uint8_t>(job.codes.size()),
                      dev.alloc<std::uint16_t>(job.lengths.size()),
                      dev.alloc<Key128>(total), dev.alloc<Key128>(total)};
    on_next_leg(
        *ctx,
        [&](gpu::Stream s) {
          s.copy_to_device_async(job.codes, batch.codes.span());
          s.copy_to_device_async(job.lengths, batch.lengths.span());
        },
        [&](gpu::Stream s) {
          if (ctx->thread_per_read) {
            thread_per_read_kernel(s, job, batch);
          } else {
            block_per_read_kernel(s, job, batch);
          }
        },
        [&](gpu::Stream s) {
          s.copy_to_host_async(std::span<const Key128>(batch.prefix.span()),
                               std::span(job.prefix, total));
          s.copy_to_host_async(std::span<const Key128>(batch.suffix.span()),
                               std::span(job.suffix, total));
        });
  }

  void match_bounds(std::span<const Key128> needles,
                    std::span<const Key128> haystack,
                    std::span<std::uint32_t> lower,
                    std::span<std::uint32_t> upper,
                    DeviceContext* ctx) override {
    gpu::Device& dev = require_device(ctx);
    if (lower.size() != needles.size() || upper.size() != needles.size()) {
      throw std::invalid_argument("match_bounds: output size mismatch");
    }
    if (needles.empty()) return;
    const std::size_t window = ctx->match_window;
    const auto d_sfx = reserve(dev, ctx->match_needles, window, needles.size());
    const auto d_pfx =
        reserve(dev, ctx->match_haystack, window, haystack.size());
    const auto d_lower = reserve(dev, ctx->match_lower, window, needles.size());
    const auto d_upper = reserve(dev, ctx->match_upper, window, needles.size());
    on_next_leg(
        *ctx,
        [&](gpu::Stream s) {
          s.copy_to_device_async(needles, d_sfx);
          s.copy_to_device_async(haystack, d_pfx);
        },
        [&](gpu::Stream s) {
          gpu::vector_lower_bound(s, d_sfx, d_pfx, d_lower);
          gpu::vector_upper_bound(s, d_sfx, d_pfx, d_upper);
        },
        [&](gpu::Stream s) {
          s.copy_to_host_async(std::span<const std::uint32_t>(d_lower), lower);
          s.copy_to_host_async(std::span<const std::uint32_t>(d_upper), upper);
        });
  }

  void sort_pairs(std::span<Key128> keys, std::span<std::uint64_t> values,
                  DeviceContext* ctx) override {
    gpu::Device& dev = require_device(ctx);
    if (keys.size() != values.size()) {
      throw std::invalid_argument("sort_pairs: key/value size mismatch");
    }
    if (keys.size() < 2) return;
    auto d_keys = dev.alloc<Key128>(keys.size());
    auto d_vals = dev.alloc<std::uint64_t>(values.size());
    on_next_leg(
        *ctx,
        [&](gpu::Stream s) {
          s.copy_to_device_async(std::span<const Key128>(keys),
                                 d_keys.span());
          s.copy_to_device_async(std::span<const std::uint64_t>(values),
                                 d_vals.span());
        },
        [&](gpu::Stream s) {
          gpu::sort_pairs<std::uint64_t>(s, d_keys.span(), d_vals.span());
        },
        [&](gpu::Stream s) {
          s.copy_to_host_async(std::span<const Key128>(d_keys.span()), keys);
          s.copy_to_host_async(std::span<const std::uint64_t>(d_vals.span()),
                               values);
        });
  }

 private:
  static gpu::Device& require_device(DeviceContext* ctx) {
    if (ctx == nullptr || ctx->device == nullptr) {
      throw std::invalid_argument(
          "simulated backend requires a DeviceContext with a device");
    }
    return *ctx->device;
  }
};

}  // namespace

Backend& simulated_backend() {
  static SimulatedBackend backend;
  return backend;
}

}  // namespace lasagna::kernel
