// Batch fingerprint generation (paper section III-A).
//
// The paper's key kernel processes one read per *thread block* and computes
// the fingerprints of all prefixes with a Hillis-Steele scan (Fig 5): at
// step `offset`, thread i (i >= offset) folds the element `offset` positions
// to its left into its own, multiplying by the place value sigma^offset; the
// offset doubles each step. Suffix fingerprints are then derived from the
// prefix fingerprints and the place-value table in one more phase (Fig 6):
//   S[i] = (P[n-1] - P[i-1] * sigma^(n-i)) mod q.
// The naive alternative runs one read per *thread* with a sequential
// rolling hash; the paper reports it suffers "excessive memory throttling".
//
// Both strategies are cost models of the simulated device: every backend
// computes the same values with the host's rolling-hash kernels, and the
// simulated device charges the chosen strategy's modeled time, the naive
// kernel's strided global accesses with the uncoalesced-transaction penalty
// (ablation bench bench_fingerprint_kernels).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fingerprint/rabin_karp.hpp"
#include "gpu/device.hpp"
#include "gpu/key128.hpp"
#include "gpu/stream.hpp"

namespace lasagna::fingerprint {

/// Precomputed place values sigma^i mod q for both hash functions,
/// "done once for the entire program and reused for all reads".
class PlaceTable {
 public:
  PlaceTable(const FingerprintConfig& cfg, unsigned max_length);

  [[nodiscard]] std::uint64_t primary(unsigned i) const { return pow_a_[i]; }
  [[nodiscard]] std::uint64_t secondary(unsigned i) const { return pow_b_[i]; }
  /// Whole tables, as the kernel backends consume them (kernel::FingerprintJob).
  [[nodiscard]] std::span<const std::uint64_t> primary_table() const {
    return pow_a_;
  }
  [[nodiscard]] std::span<const std::uint64_t> secondary_table() const {
    return pow_b_;
  }
  [[nodiscard]] unsigned max_length() const {
    return static_cast<unsigned>(pow_a_.size());
  }
  [[nodiscard]] const FingerprintConfig& config() const { return cfg_; }

 private:
  FingerprintConfig cfg_;
  std::vector<std::uint64_t> pow_a_;
  std::vector<std::uint64_t> pow_b_;
};

/// Which kernel the simulated device charges (the values are the same).
enum class KernelStrategy {
  kBlockPerRead,   ///< Hillis-Steele scan, one block per read (the paper's)
  kThreadPerRead,  ///< naive rolling hash, one thread per read (baseline)
};

/// Fingerprints of every prefix and suffix of a batch of reads.
///
/// Layout: entry [r * stride + i] holds, for read r,
///   prefix[i] = fingerprint of the prefix of length i+1,
///   suffix[i] = fingerprint of the suffix starting at i (length len-i),
/// where stride = max read length in the batch; entries beyond a read's
/// length are zero (the kernel backends' canonical form, so outputs are
/// byte-comparable across backends and in dump/replay).
struct BatchFingerprints {
  unsigned stride = 0;
  std::vector<gpu::Key128> prefix;
  std::vector<gpu::Key128> suffix;
};

/// Run the fingerprint kernel over a batch of reads through
/// kernel::run_fingerprint (the active backend, timed and captured). On
/// the default simulated backend transfers (encoded reads in, fingerprints
/// out) are charged to `dev` on the next leg of `streams`, so consecutive
/// batches double-buffer: transfers overlap the neighbouring batch's
/// kernel while kernels serialize (one compute engine). Without a pair the
/// charges land on the default stream. Host backends (scalar/avx2) compute
/// on the host and leave the modeled clock untouched. Outputs are
/// byte-identical either way.
[[nodiscard]] BatchFingerprints compute_batch_fingerprints(
    gpu::Device& dev, std::span<const std::string> reads,
    const PlaceTable& places,
    KernelStrategy strategy = KernelStrategy::kBlockPerRead,
    gpu::StreamPair* streams = nullptr);

}  // namespace lasagna::fingerprint
