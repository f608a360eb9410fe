// The simulated-GPU backend: the paper's kernels on the simulated CUDA
// device (gpu::Device), charging its modeled clock. This is the backend the
// pipeline uses by default and the only simulated copy of the kernels: the
// pipeline, kernel_replay and bench_kernels all run this code.
//
// Like the device primitives, every kernel computes on the host and charges
// the device's cost. The fingerprint kernel runs the fastest host kernel
// (fastest_host_backend) on the device-resident batch and charges the
// paper's block-per-read Hillis-Steele scan (Figs 5/6), or the naive
// thread-per-read rolling hash with the uncoalesced-transaction penalty the
// paper's "excessive memory throttling" corresponds to. match_bounds and
// sort_pairs wrap the device primitives (gpu/primitives.hpp). Every call
// is one StreamPair::round_trip on the caller's stream pair: H2D copies,
// the kernel (serialized after the last kernel on either leg), D2H copies,
// all charged on one leg.
#include <algorithm>
#include <bit>
#include <stdexcept>

#include "gpu/device.hpp"
#include "gpu/key128.hpp"
#include "gpu/primitives.hpp"
#include "gpu/stream.hpp"
#include "kernel/backend.hpp"

namespace lasagna::kernel {

namespace {

using gpu::Key128;

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

/// The fingerprint kernel on the device-resident batch: the fastest host
/// kernel fills both output arrays, and `leg` is charged one launch of the
/// paper's kernel, or of the naive one when `thread_per_read`.
void fingerprint_kernel(gpu::Stream leg, const FingerprintJob& job,
                        DeviceBatch& batch, bool thread_per_read) {
  FingerprintJob on_device = job;
  on_device.codes = batch.codes.span();
  on_device.lengths = batch.lengths.span();
  on_device.prefix = batch.prefix.data();
  on_device.suffix = batch.suffix.data();
  fastest_host_backend().fingerprint(on_device, nullptr);

  // A block-per-read grid over empty reads has no threads to launch.
  if (thread_per_read || job.stride > 0) leg.device().note_launch();
  const std::uint64_t total =
      static_cast<std::uint64_t>(job.count) * job.stride;
  // Each base reads its code and writes both fingerprints.
  constexpr std::uint64_t kBytesPerBase = 1 + 2 * sizeof(Key128);
  if (thread_per_read) {
    // One thread rolls a whole read, so every access is strided by the
    // read length and transactions are uncoalesced: charge the 8x
    // transaction expansion, and ~2 modmul ops per base per hash.
    constexpr std::uint64_t kUncoalescedPenalty = 8;
    leg.charge_kernel(kUncoalescedPenalty * total * kBytesPerBase,
                      total * 2 * 2);
  } else {
    // One block per read scans in shared memory with coalesced global
    // accesses: ~2 modmul ops per base per doubling step per hash.
    const unsigned steps =
        job.stride <= 1 ? 1 : std::bit_width(job.stride - 1);
    leg.charge_kernel(total * kBytesPerBase, total * steps * 2 * 2);
  }
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
          fingerprint_kernel(s, job, batch, ctx->thread_per_read);
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
