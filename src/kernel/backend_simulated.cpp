// The simulated-GPU backend: the paper's kernels on the simulated CUDA
// device (gpu::Device), charging its modeled clock. This is the backend the
// pipeline uses by default and the only simulated copy of the kernels: the
// pipeline, kernel_replay and bench_kernels all run this code.
//
// The device is a memory budget and a clock. Every kernel computes in
// place, on the caller's arrays, with the fastest host kernel
// (fastest_host_backend), and charges what the device version costs:
// its device allocations, its transfers by byte count, and its kernel.
// The fingerprint charges the paper's block-per-read Hillis-Steele scan
// (Figs 5/6), or the naive thread-per-read rolling hash with the
// uncoalesced-transaction penalty the paper's "excessive memory throttling"
// corresponds to; match_bounds and sort_pairs charge the Thrust-style
// primitives (gpu/primitives.hpp). Every call is one
// StreamPair::round_trip on the caller's stream pair: H2D copies, the
// kernel (serialized after the last kernel on either leg), D2H copies, all
// charged on one leg.
#include <algorithm>
#include <bit>
#include <stdexcept>

#include "gpu/device.hpp"
#include "gpu/key128.hpp"
#include "gpu/primitives.hpp"
#include "gpu/stream.hpp"
#include "kernel/backend.hpp"
#include "util/thread_pool.hpp"

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

/// The fingerprint kernel: the fastest host kernel fills the caller's
/// output arrays, and `leg` is charged one launch of the paper's kernel,
/// or of the naive one when `thread_per_read`.
void fingerprint_kernel(gpu::Stream leg, const FingerprintJob& job,
                        bool thread_per_read) {
  fastest_host_backend().fingerprint(job, nullptr);

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

/// Reallocates `buffer` (at max(window, n) elements of T) when it holds
/// fewer than `n`.
template <typename T>
void reserve(gpu::Device& dev, util::TrackedAllocation& buffer,
             std::size_t window, std::size_t n) {
  if (buffer.bytes() < n * sizeof(T)) {
    buffer.reset();
    buffer = dev.alloc<T>(std::max(window, n));
  }
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
    // The device batch: the uploaded encoded reads (the pipeline uploads
    // reads, not fingerprints) and both output arrays.
    const auto codes = dev.alloc<std::uint8_t>(job.codes.size());
    const auto lengths = dev.alloc<std::uint16_t>(job.lengths.size());
    const auto prefix = dev.alloc<Key128>(total);
    const auto suffix = dev.alloc<Key128>(total);
    on_next_leg(
        *ctx,
        [&](gpu::Stream s) {
          s.charge_transfer(job.codes.size_bytes());
          s.charge_transfer(job.lengths.size_bytes());
        },
        [&](gpu::Stream s) {
          fingerprint_kernel(s, job, ctx->thread_per_read);
        },
        [&](gpu::Stream s) {
          s.charge_transfer(prefix.bytes());
          s.charge_transfer(suffix.bytes());
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
    reserve<Key128>(dev, ctx->match_needles, window, needles.size());
    reserve<Key128>(dev, ctx->match_haystack, window, haystack.size());
    reserve<std::uint32_t>(dev, ctx->match_lower, window, needles.size());
    reserve<std::uint32_t>(dev, ctx->match_upper, window, needles.size());
    on_next_leg(
        *ctx,
        [&](gpu::Stream s) {
          s.charge_transfer(needles.size_bytes());
          s.charge_transfer(haystack.size_bytes());
        },
        [&](gpu::Stream s) {
          // One thread per needle on the device; ranges of needles on the
          // host pool.
          util::ThreadPool::global().parallel_for_chunked(
              needles.size(), [&](std::size_t begin, std::size_t end) {
                fastest_host_backend().match_bounds(
                    needles.subspan(begin, end - begin), haystack,
                    lower.subspan(begin, end - begin),
                    upper.subspan(begin, end - begin), nullptr);
              });
          gpu::charge_bound(s, needles.size(), haystack.size());  // lower
          gpu::charge_bound(s, needles.size(), haystack.size());  // upper
        },
        [&](gpu::Stream s) {
          s.charge_transfer(lower.size_bytes());
          s.charge_transfer(upper.size_bytes());
        });
  }

  void sort_pairs(std::span<Key128> keys, std::span<std::uint64_t> values,
                  DeviceContext* ctx) override {
    gpu::Device& dev = require_device(ctx);
    if (keys.size() != values.size()) {
      throw std::invalid_argument("sort_pairs: key/value size mismatch");
    }
    if (keys.size() < 2) return;
    const auto d_keys = dev.alloc<Key128>(keys.size());
    const auto d_vals = dev.alloc<std::uint64_t>(values.size());
    on_next_leg(
        *ctx,
        [&](gpu::Stream s) {
          s.charge_transfer(keys.size_bytes());
          s.charge_transfer(values.size_bytes());
        },
        [&](gpu::Stream s) {
          gpu::charge_sort_pairs(s, keys);
          fastest_host_backend().sort_pairs(keys, values, nullptr);
        },
        [&](gpu::Stream s) {
          s.charge_transfer(keys.size_bytes());
          s.charge_transfer(values.size_bytes());
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
