#include "util/bitvector.hpp"

#include <bit>
#include <stdexcept>

namespace lasagna::util {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t word_count(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}
}  // namespace

AtomicBitVector::AtomicBitVector(std::size_t bits)
    : bits_(bits), words_(word_count(bits)) {
  for (auto& w : words_) w.store(0, std::memory_order_relaxed);
}

bool AtomicBitVector::test(std::size_t i) const {
  if (i >= bits_) throw std::out_of_range("AtomicBitVector::test");
  const std::uint64_t word =
      words_[i / kWordBits].load(std::memory_order_acquire);
  return (word >> (i % kWordBits)) & 1u;
}

bool AtomicBitVector::test_and_set(std::size_t i) {
  if (i >= bits_) throw std::out_of_range("AtomicBitVector::test_and_set");
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  const std::uint64_t prev =
      words_[i / kWordBits].fetch_or(mask, std::memory_order_acq_rel);
  return (prev & mask) != 0;
}

void AtomicBitVector::set(std::size_t i) { (void)test_and_set(i); }

void AtomicBitVector::clear(std::size_t i) {
  if (i >= bits_) throw std::out_of_range("AtomicBitVector::clear");
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  words_[i / kWordBits].fetch_and(~mask, std::memory_order_acq_rel);
}

void AtomicBitVector::reset() {
  for (auto& w : words_) w.store(0, std::memory_order_relaxed);
}

std::size_t AtomicBitVector::count() const {
  std::size_t total = 0;
  for (const auto& w : words_) {
    total += static_cast<std::size_t>(
        std::popcount(w.load(std::memory_order_relaxed)));
  }
  return total;
}

}  // namespace lasagna::util
