// 64-bit FNV-1a: the checkpoint guards and sidecar checksums, the `.lkd`
// record checksums, the cluster's shuffle content fingerprints and the
// benches' output digests all fold bytes with it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lasagna::util::fnv {

constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;  ///< offset basis
constexpr std::uint64_t kPrime = 0x100000001b3ULL;

inline std::uint64_t fold_bytes(std::uint64_t h, const void* data,
                                std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
  return h;
}

/// Folds `v`'s eight bytes, least significant first.
inline std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kPrime;
  }
  return h;
}

}  // namespace lasagna::util::fnv
