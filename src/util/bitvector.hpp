// Atomic bit-vector; stores the per-vertex out-degree flags used by the
// greedy string-graph builder (paper section III-C) and the token passed
// between nodes in the distributed reduce (section III-E).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lasagna::util {

/// Fixed-size bit vector with atomic set/test-and-set on individual bits.
class AtomicBitVector {
 public:
  AtomicBitVector() = default;
  explicit AtomicBitVector(std::size_t bits);

  [[nodiscard]] std::size_t size() const { return bits_; }

  /// Read bit `i`.
  [[nodiscard]] bool test(std::size_t i) const;

  /// Set bit `i`; returns the previous value (atomic test-and-set).
  bool test_and_set(std::size_t i);

  /// Set bit `i` unconditionally.
  void set(std::size_t i);

  /// Clear bit `i` unconditionally.
  void clear(std::size_t i);

  /// Clear every bit.
  void reset();

  /// Number of set bits (not atomic with respect to concurrent writers).
  [[nodiscard]] std::size_t count() const;

  /// Bytes the words occupy (a token hop's payload in the distributed
  /// reduce).
  [[nodiscard]] std::size_t byte_size() const { return words_.size() * 8; }

 private:
  std::size_t bits_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace lasagna::util
