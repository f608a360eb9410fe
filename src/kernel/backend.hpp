// Multi-backend harness for the pipeline's three hot inner kernels
// (UCLA-VAST/minimap2-acceleration pattern, see DESIGN.md):
//
//   1. fingerprint generation  — all prefix/suffix Rabin-Karp fingerprints
//                                of a batch of encoded reads,
//   2. match bounds            — batched lower/upper bound of suffix
//                                fingerprints in a sorted prefix window
//                                (Algorithm 2 lines 8-9),
//   3. radix sort              — stable LSD sort of (Key128, u64) pairs.
//
// A Backend is one implementation of all three over plain host memory: a
// scalar host path, an AVX2-vectorized host path, and the simulated GPU,
// which computes in place with the fastest host path and charges the
// device budget and modeled clock the paper's numbers come from. All
// backends produce byte-identical outputs — correctness is pinned by the
// dump/replay golden testbed (kernel/dump.hpp, kernel/replay.hpp) and by
// the per-string Rabin-Karp reference (fingerprint/rabin_karp.hpp) — so
// new backends (CUDA, HLS) drop in behind the same interface and are
// verified by byte-compare against captured pipeline workloads.
//
// Output canonical form: fingerprint outputs are row-major count x stride
// Key128 arrays; entries at [r][i] with i >= lengths[r] are ZERO (callers
// pre-zero the arrays, backends write only valid lanes). This makes every
// backend's output — and therefore every dump — directly byte-comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fingerprint/rabin_karp.hpp"
#include "gpu/key128.hpp"
#include "util/installed.hpp"
#include "util/memory_tracker.hpp"

namespace lasagna::gpu {
class Device;
class StreamPair;
}  // namespace lasagna::gpu

namespace lasagna::kernel {

/// The three kernels behind the harness (stable ids — part of the dump
/// format, never renumber).
enum class KernelId : std::uint32_t {
  kFingerprint = 1,
  kMatchBounds = 2,
  kSortPairs = 3,
};

[[nodiscard]] const char* kernel_name(KernelId id);

/// Device context for backends that execute on the simulated GPU; host
/// backends ignore it. Each call rotates onto the next leg of `streams`, so
/// consecutive calls double-buffer; without a pair, calls charge the
/// default stream. `thread_per_read` charges the fingerprint as the naive
/// thread-per-read kernel instead of the paper's block-per-read scan; it
/// picks a modeled cost, not different arithmetic.
///
/// The four match allocations outlive a call: the simulated backend's first
/// match_bounds reserves each with room for max(match_window, call size)
/// elements and later calls that fit reuse them, so a caller matching
/// window after window (the reduce) allocates once, at its window size.
struct DeviceContext {
  gpu::Device* device = nullptr;
  gpu::StreamPair* streams = nullptr;
  bool thread_per_read = false;
  std::size_t match_window = 0;
  util::TrackedAllocation match_needles{};
  util::TrackedAllocation match_haystack{};
  util::TrackedAllocation match_lower{};
  util::TrackedAllocation match_upper{};
};

/// One fingerprint-generation workload: a batch of encoded reads
/// (row-major, fixed stride) plus the hash configuration and precomputed
/// place-value tables. Outputs are caller-allocated, ZEROED, count*stride
/// Key128 arrays (prefix[r*stride+i] = fingerprint of read r's prefix of
/// length i+1; suffix[r*stride+i] = fingerprint of the suffix starting at
/// i; hi = primary hash, lo = secondary).
struct FingerprintJob {
  unsigned count = 0;   ///< reads in the batch
  unsigned stride = 0;  ///< row stride = max read length in the batch
  std::span<const std::uint8_t> codes;     ///< count*stride base codes 0..3
  std::span<const std::uint16_t> lengths;  ///< count read lengths
  fingerprint::HashParams primary;
  fingerprint::HashParams secondary;
  std::span<const std::uint64_t> pow_primary;    ///< sigma_a^i mod q_a
  std::span<const std::uint64_t> pow_secondary;  ///< sigma_b^i mod q_b
  gpu::Key128* prefix = nullptr;  ///< out, count*stride, pre-zeroed
  gpu::Key128* suffix = nullptr;  ///< out, count*stride, pre-zeroed
};

/// One kernel-backend implementation. Methods are synchronous and
/// thread-compatible (no shared mutable state); the same Backend instance
/// may be used from several threads on disjoint data.
class Backend : public util::Installed<Backend> {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether this backend can run on the current host (cpuid for the
  /// vector backends; always true for scalar and simulated).
  [[nodiscard]] virtual bool available() const = 0;

  /// True when the backend executes on the simulated device and charges
  /// its modeled clock (callers must then pass a DeviceContext).
  [[nodiscard]] virtual bool uses_device() const { return false; }

  virtual void fingerprint(const FingerprintJob& job,
                           DeviceContext* ctx) = 0;

  /// For each needle: lower[i] = index of the first haystack element >=
  /// needles[i], upper[i] = index of the first element > needles[i].
  /// `haystack` must be sorted ascending.
  virtual void match_bounds(std::span<const gpu::Key128> needles,
                            std::span<const gpu::Key128> haystack,
                            std::span<std::uint32_t> lower,
                            std::span<std::uint32_t> upper,
                            DeviceContext* ctx) = 0;

  /// Stable LSD radix sort of `keys` with `values` permuted alongside.
  virtual void sort_pairs(std::span<gpu::Key128> keys,
                          std::span<std::uint64_t> values,
                          DeviceContext* ctx) = 0;
};

// ---- registry --------------------------------------------------------------

/// The simulated-GPU reference backend (always available).
[[nodiscard]] Backend& simulated_backend();

/// The scalar host backend (always available).
[[nodiscard]] Backend& scalar_backend();

/// The AVX2 host backend. Always constructible; available() is false when
/// the build disabled vector codegen (LASAGNA_AVX2=OFF) or the running CPU
/// lacks AVX2 — callers must check before dispatching to it.
[[nodiscard]] Backend& avx2_backend();

/// The fastest host backend on this host: avx2 when available(), else
/// scalar. resolve_backend("host") picks it, and the simulated device's
/// fingerprint kernel computes with it.
[[nodiscard]] Backend& fastest_host_backend();

/// Every registered backend, in registry order (simulated, scalar, avx2).
[[nodiscard]] std::vector<Backend*> all_backends();

/// Exact-name lookup ("simulated", "scalar", "avx2"); nullptr if unknown.
/// Returns unavailable backends too — replay tools decide how to skip.
[[nodiscard]] Backend* find_backend(std::string_view name);

/// Resolve a user-facing backend selection and log one line describing the
/// choice. "" and "simulated" pick the simulated device; "host" and "auto"
/// pick the fastest available host backend (avx2 if the CPU supports it,
/// else scalar); "avx2" falls back to scalar with a logged warning when
/// AVX2 is unavailable. Throws std::invalid_argument on unknown names.
[[nodiscard]] Backend& resolve_backend(std::string_view name);

/// The process-wide backend the pipeline dispatch sites use (defaults to
/// the simulated device). Install with ScopedBackend.
[[nodiscard]] Backend& active_backend();

/// RAII install of the active backend (restores the previous selection).
class ScopedBackend : public Backend::ScopedInstall {
 public:
  explicit ScopedBackend(Backend& backend) : ScopedInstall(&backend) {}
};

// ---- dispatch --------------------------------------------------------------

// The pipeline's one entry per kernel: each runs active_backend(), records
// every call's wall time in the `kernel.<name>.wall_ns` histogram, and
// hands inputs and outputs to an active CaptureSession (kernel/dump.hpp).

void run_fingerprint(const FingerprintJob& job, DeviceContext& ctx);

void run_match_bounds(std::span<const gpu::Key128> needles,
                      std::span<const gpu::Key128> haystack,
                      std::span<std::uint32_t> lower,
                      std::span<std::uint32_t> upper, DeviceContext& ctx);

/// Fills chunk `i`'s keys and values (resizing both) for a sort batch.
using SortChunkLoad = std::function<void(
    std::size_t i, std::vector<gpu::Key128>& keys,
    std::vector<std::uint64_t>& values)>;
/// Takes chunk `i`'s keys and values back, sorted.
using SortChunkStore = std::function<void(
    std::size_t i, std::span<const gpu::Key128> keys,
    std::span<const std::uint64_t> values)>;

/// One sort_pairs call per chunk of a batch of `chunks` independent chunks:
/// `load`, sort, `store`. The entry owns the schedule. A backend that
/// uses_device() sorts the chunks one after another, because its charges
/// land on ctx's stream pair in chunk order and each sort holds its double
/// buffer against the device budget. Host backends touch neither the
/// device nor ctx, so their chunks run as concurrent pool tasks (`load`
/// and `store` must then be thread-safe across distinct chunks); captures
/// still reach the session in chunk order.
void run_sort_pairs_batch(std::size_t chunks, const SortChunkLoad& load,
                          const SortChunkStore& store, DeviceContext& ctx);

}  // namespace lasagna::kernel
