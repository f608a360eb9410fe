// Rabin-Karp rolling-hash fingerprints (host reference implementation).
//
// A fingerprint of a string s over radix sigma modulo prime q is
//   f(s) = (s[0]*sigma^(n-1) + s[1]*sigma^(n-2) + ... + s[n-1]) mod q
// with bases encoded 0..3. The paper pairs two independent 64-bit hashes
// (different radix and prime) into one 128-bit fingerprint so that false
// positives vanish in practice (section IV-B). The batch kernels behind
// kernels.hpp compute the same values for whole read batches; tests check
// every backend against this per-string reference.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "gpu/key128.hpp"

namespace lasagna::fingerprint {

/// Parameters of one scalar Rabin-Karp hash.
struct HashParams {
  std::uint64_t radix = 5;                    ///< small prime > alphabet size
  std::uint64_t modulus = 2305843009213693951ull;  ///< 2^61 - 1 (prime)
};

/// The paired configuration producing 128-bit fingerprints.
struct FingerprintConfig {
  HashParams primary;
  HashParams secondary{7, 4611686018427387847ull};  // prime near 2^62

  /// Default paper-style configuration.
  static FingerprintConfig standard();

  /// Independent random primes (reproducible from seed); radixes stay 5/7.
  static FingerprintConfig randomized(std::uint64_t seed);

  /// Deliberately weak config (tiny moduli) used by tests to demonstrate
  /// that fingerprint collisions produce false-positive edges.
  static FingerprintConfig weak(std::uint64_t modulus_a,
                                std::uint64_t modulus_b);
};

/// Scalar hash of a whole string (bases must be ACGT).
[[nodiscard]] std::uint64_t hash_sequence(std::string_view s,
                                          const HashParams& p);

/// Fingerprints of every prefix: out[i] = hash(s[0..i]) (length i+1).
[[nodiscard]] std::vector<std::uint64_t> prefix_hashes(std::string_view s,
                                                       const HashParams& p);

/// Fingerprints of every suffix: out[i] = hash(s[i..n-1]).
[[nodiscard]] std::vector<std::uint64_t> suffix_hashes(std::string_view s,
                                                       const HashParams& p);

/// 128-bit fingerprint of a whole string under a paired config.
[[nodiscard]] gpu::Key128 fingerprint(std::string_view s,
                                      const FingerprintConfig& cfg);

}  // namespace lasagna::fingerprint
