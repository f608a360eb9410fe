// The pipeline's kernel dispatch: one entry per kernel around the active
// backend, so the wall-clock histograms, dump capture and the sort batch's
// schedule live in one place and every backend — the simulated device
// included — runs the same path.
#include <chrono>

#include "kernel/backend.hpp"
#include "kernel/dump.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

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

void run_sort_pairs_batch(std::size_t chunks, const SortChunkLoad& load,
                          const SortChunkStore& store, DeviceContext& ctx) {
  static obs::Histogram& wall_ns =
      obs::MetricsRegistry::global().histogram("kernel.sort_pairs.wall_ns");
  Backend& backend = active_backend();
  CaptureSession* capture = CaptureSession::active();
  // The sort is in place: a capture keeps a copy of each chunk's input.
  struct Captured {
    std::size_t count = 0;
    std::vector<std::byte> input;
    std::vector<std::byte> output;
  };
  std::vector<Captured> captured(capture != nullptr ? chunks : 0);
  auto sort_chunk = [&](std::size_t i, std::vector<gpu::Key128>& keys,
                        std::vector<std::uint64_t>& values) {
    load(i, keys, values);
    if (capture != nullptr) {
      captured[i].count = keys.size();
      captured[i].input = concat_bytes(
          {std::as_bytes(std::span(keys)), std::as_bytes(std::span(values))});
    }
    timed(wall_ns, [&] { backend.sort_pairs(keys, values, &ctx); });
    if (capture != nullptr) {
      captured[i].output = concat_bytes(
          {std::as_bytes(std::span(keys)), std::as_bytes(std::span(values))});
    }
    store(i, keys, values);
  };

  if (backend.uses_device()) {
    std::vector<gpu::Key128> keys;
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < chunks; ++i) sort_chunk(i, keys, values);
  } else {
    util::ThreadPool::global().parallel_for_chunked(
        chunks, [&](std::size_t begin, std::size_t end) {
          std::vector<gpu::Key128> keys;
          std::vector<std::uint64_t> values;
          for (std::size_t i = begin; i < end; ++i) {
            sort_chunk(i, keys, values);
          }
        });
  }
  for (const Captured& c : captured) {
    capture->record(KernelId::kSortPairs, {c.count, 0, 0, 0, 0, 0, 0, 0},
                    c.input, c.output);
  }
}

}  // namespace lasagna::kernel
