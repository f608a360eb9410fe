// The pipeline's kernel dispatch: one wrapper per kernel around the active
// backend, so the wall-clock histograms and dump capture live in one place
// and every backend — the simulated device included — runs the same path.
#include <chrono>

#include "kernel/backend.hpp"
#include "kernel/dump.hpp"
#include "obs/metrics.hpp"

namespace lasagna::kernel {

namespace {

/// Runs `call` and records its wall time in `histogram`.
template <typename Call>
void timed(obs::Histogram& histogram, Call&& call) {
  const auto t0 = std::chrono::steady_clock::now();
  call();
  histogram.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
}

}  // namespace

void run_fingerprint(const FingerprintJob& job, DeviceContext& ctx) {
  static obs::Histogram& wall_ns =
      obs::MetricsRegistry::global().histogram("kernel.fingerprint.wall_ns");
  timed(wall_ns, [&] { active_backend().fingerprint(job, &ctx); });

  if (CaptureSession* capture = CaptureSession::active()) {
    const std::size_t total =
        static_cast<std::size_t>(job.count) * job.stride;
    capture->record(
        KernelId::kFingerprint,
        {job.count, job.stride, job.primary.radix, job.primary.modulus,
         job.secondary.radix, job.secondary.modulus, 0, 0},
        concat_bytes({std::as_bytes(job.codes), std::as_bytes(job.lengths)}),
        concat_bytes({std::as_bytes(std::span(job.prefix, total)),
                      std::as_bytes(std::span(job.suffix, total))}));
  }
}

void run_match_bounds(std::span<const gpu::Key128> needles,
                      std::span<const gpu::Key128> haystack,
                      std::span<std::uint32_t> lower,
                      std::span<std::uint32_t> upper, DeviceContext& ctx) {
  static obs::Histogram& wall_ns =
      obs::MetricsRegistry::global().histogram("kernel.match_bounds.wall_ns");
  timed(wall_ns, [&] {
    active_backend().match_bounds(needles, haystack, lower, upper, &ctx);
  });

  if (CaptureSession* capture = CaptureSession::active()) {
    capture->record(
        KernelId::kMatchBounds,
        {needles.size(), haystack.size(), 0, 0, 0, 0, 0, 0},
        concat_bytes({std::as_bytes(needles), std::as_bytes(haystack)}),
        concat_bytes({std::as_bytes(lower), std::as_bytes(upper)}));
  }
}

void run_sort_pairs(std::span<gpu::Key128> keys,
                    std::span<std::uint64_t> values, DeviceContext& ctx) {
  static obs::Histogram& wall_ns =
      obs::MetricsRegistry::global().histogram("kernel.sort_pairs.wall_ns");
  // The sort is in place: keep a copy of the input for the capture.
  CaptureSession* capture = CaptureSession::active();
  std::vector<std::byte> input;
  if (capture != nullptr) {
    input = concat_bytes({std::as_bytes(keys), std::as_bytes(values)});
  }
  timed(wall_ns, [&] { active_backend().sort_pairs(keys, values, &ctx); });

  if (capture != nullptr) {
    capture->record(
        KernelId::kSortPairs, {keys.size(), 0, 0, 0, 0, 0, 0, 0}, input,
        concat_bytes({std::as_bytes(keys), std::as_bytes(values)}));
  }
}

}  // namespace lasagna::kernel
