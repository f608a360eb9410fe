#include "fingerprint/kernels.hpp"

#include <stdexcept>

#include "kernel/backend.hpp"
#include "seq/dna.hpp"
#include "util/modmath.hpp"

namespace lasagna::fingerprint {

using util::mulmod;

PlaceTable::PlaceTable(const FingerprintConfig& cfg, unsigned max_length)
    : cfg_(cfg), pow_a_(max_length), pow_b_(max_length) {
  std::uint64_t a = 1 % cfg.primary.modulus;
  std::uint64_t b = 1 % cfg.secondary.modulus;
  for (unsigned i = 0; i < max_length; ++i) {
    pow_a_[i] = a;
    pow_b_[i] = b;
    a = mulmod(a, cfg.primary.radix, cfg.primary.modulus);
    b = mulmod(b, cfg.secondary.radix, cfg.secondary.modulus);
  }
}

namespace {

/// Host-side encoded batch: base codes, one byte per base, row-major with
/// a fixed stride (reads shorter than the stride leave a zero tail).
struct EncodedBatch {
  std::vector<std::uint8_t> codes;
  std::vector<std::uint16_t> lengths;
  unsigned stride = 0;
  unsigned count = 0;
};

EncodedBatch encode(std::span<const std::string> reads) {
  EncodedBatch batch;
  batch.count = static_cast<unsigned>(reads.size());
  for (const auto& r : reads) {
    batch.stride = std::max(batch.stride, static_cast<unsigned>(r.size()));
  }
  batch.codes.assign(static_cast<std::size_t>(batch.count) * batch.stride, 0);
  batch.lengths.resize(batch.count);
  for (unsigned r = 0; r < batch.count; ++r) {
    const auto& read = reads[r];
    if (read.size() > 0xffff) {
      throw std::invalid_argument("read longer than 65535 bases");
    }
    batch.lengths[r] = static_cast<std::uint16_t>(read.size());
    for (std::size_t i = 0; i < read.size(); ++i) {
      batch.codes[static_cast<std::size_t>(r) * batch.stride + i] =
          static_cast<std::uint8_t>(seq::encode_base(read[i]));
    }
  }
  return batch;
}

}  // namespace

BatchFingerprints compute_batch_fingerprints(gpu::Device& dev,
                                             std::span<const std::string> reads,
                                             const PlaceTable& places,
                                             KernelStrategy strategy,
                                             gpu::StreamPair* streams) {
  if (reads.empty()) return {};
  for (const auto& r : reads) {
    if (r.size() > places.max_length()) {
      throw std::invalid_argument(
          "read longer than the PlaceTable max_length");
    }
  }
  const EncodedBatch batch = encode(reads);
  const std::size_t total =
      static_cast<std::size_t>(batch.count) * batch.stride;

  BatchFingerprints out;
  out.stride = batch.stride;
  out.prefix.assign(total, gpu::Key128{});  // backends fill valid lanes only
  out.suffix.assign(total, gpu::Key128{});

  const FingerprintConfig& cfg = places.config();
  kernel::FingerprintJob job;
  job.count = batch.count;
  job.stride = batch.stride;
  job.codes = batch.codes;
  job.lengths = batch.lengths;
  job.primary = cfg.primary;
  job.secondary = cfg.secondary;
  job.pow_primary = places.primary_table();
  job.pow_secondary = places.secondary_table();
  job.prefix = out.prefix.data();
  job.suffix = out.suffix.data();

  kernel::DeviceContext ctx{&dev, streams,
                            strategy == KernelStrategy::kThreadPerRead};
  kernel::run_fingerprint(job, ctx);
  return out;
}

}  // namespace lasagna::fingerprint
