// AVX2 host backend: the first *wall-clock* implementation of the three
// hot kernels (every earlier number in this repo is modeled time).
//
// Why it is fast relative to the scalar backend:
//
//   * fingerprint — the scalar path reduces every Rabin-Karp step with
//     util::mulmod's `unsigned __int128 %`, a library 128/64 division
//     (__umodti3). Here the per-step multiplier is invariant (the radix
//     sigma), so each lane uses Shoup modular multiplication instead:
//     precompute w' = floor(w * 2^64 / q) once, then
//         qest = mulhi64(a, w');  r = a*w - qest*q   (in [0, 2q))
//     — two 64x64 multiplies and one conditional subtract, no division.
//     Four reads run per vector lane (64-bit lanes); reads are processed
//     in strips of four, prefixes front-aligned and suffixes end-aligned
//     so the place value sigma^k is a per-step broadcast constant.
//     Requires q < 2^62 (the suffix accumulator reaches 4q); jobs with
//     out-of-range moduli delegate to the scalar backend.
//   * match_bounds — branchless binary search: all lanes execute the same
//     halving schedule (len is shared), the probed key is fetched with
//     vpgatherqq, and the comparison result conditionally advances each
//     lane's base. Four needles per iteration, no branch mispredicts.
//   * sort_pairs — runs the scalar backend's stable LSD radix sort. The
//     sort is memory-bound: a 4-bank vector histogram measured at parity
//     with scalar, both on 2M pairs and on the pipeline's ~4K-pair calls.
//
// AVX2 has no 64-bit full multiply or unsigned compare, so both are
// synthesized: mulhi/mullo from vpmuludq 32-bit limb products, unsigned
// compare by XORing the sign bit before the signed vpcmpgtq.
//
// The whole implementation is compiled only when the build enables
// LASAGNA_AVX2 (then this TU gets -mavx2); at runtime available() also
// requires cpuid to report AVX2 + OS ymm-state support, so generic builds
// and older hosts fall back to scalar instead of crashing (satellite:
// kernel::cpu_features()).
#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "gpu/key128.hpp"
#include "kernel/backend.hpp"
#include "kernel/cpu_features.hpp"
#include "util/modmath.hpp"

#if defined(LASAGNA_AVX2_COMPILED) && defined(__AVX2__)
#include <immintrin.h>
#define LASAGNA_AVX2_IMPL 1
#endif

namespace lasagna::kernel {

namespace {

using gpu::Key128;

#ifdef LASAGNA_AVX2_IMPL

// ---- 64-bit vector arithmetic building blocks ------------------------------

const __m256i kSignBit = _mm256_set1_epi64x(
    static_cast<long long>(0x8000000000000000ull));

/// Low 64 bits of the 64x64 product, per lane.
inline __m256i mul64_lo(__m256i a, __m256i b) {
  const __m256i ah = _mm256_srli_epi64(a, 32);
  const __m256i bh = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, bh);
  const __m256i hl = _mm256_mul_epu32(ah, b);
  // Only the low 32 bits of (lh + hl) survive the shift, so the sum may
  // wrap freely.
  const __m256i mid = _mm256_add_epi64(lh, hl);
  return _mm256_add_epi64(ll, _mm256_slli_epi64(mid, 32));
}

/// High 64 bits of the 64x64 product, per lane (exact).
inline __m256i mul64_hi(__m256i a, __m256i b) {
  const __m256i m32 = _mm256_set1_epi64x(0xffffffffll);
  const __m256i ah = _mm256_srli_epi64(a, 32);
  const __m256i bh = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, bh);
  const __m256i hl = _mm256_mul_epu32(ah, b);
  const __m256i hh = _mm256_mul_epu32(ah, bh);
  // Carry out of bits [32, 64) of the full product: three 32-bit terms,
  // sum < 3 * 2^32, no overflow.
  __m256i mid = _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                                 _mm256_and_si256(lh, m32));
  mid = _mm256_add_epi64(mid, _mm256_and_si256(hl, m32));
  __m256i hi = _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32));
  hi = _mm256_add_epi64(hi, _mm256_srli_epi64(hl, 32));
  return _mm256_add_epi64(hi, _mm256_srli_epi64(mid, 32));
}

/// a < b, unsigned 64-bit, per lane (mask of all-ones where true).
inline __m256i cmplt_u64(__m256i a, __m256i b) {
  return _mm256_cmpgt_epi64(_mm256_xor_si256(b, kSignBit),
                            _mm256_xor_si256(a, kSignBit));
}

/// x - (q where x >= q), i.e. one conditional subtract toward [0, q).
inline __m256i cond_sub(__m256i x, __m256i q) {
  const __m256i keep = cmplt_u64(x, q);  // x < q: subtract nothing
  return _mm256_sub_epi64(x, _mm256_andnot_si256(keep, q));
}

/// Per-modulus constants for Shoup multiplication by the invariant radix.
struct ShoupCtx {
  __m256i w;       ///< sigma mod q, broadcast
  __m256i wp;      ///< floor(sigma * 2^64 / q), broadcast
  __m256i q;       ///< modulus, broadcast
  __m256i q2;      ///< 2 * modulus, broadcast (for the suffix reduction)
  std::uint64_t qs = 0;  ///< modulus, scalar

  explicit ShoupCtx(const fingerprint::HashParams& p) {
    qs = p.modulus;
    const std::uint64_t ws = p.radix % p.modulus;
    const std::uint64_t wps = static_cast<std::uint64_t>(
        (static_cast<util::u128>(ws) << 64) / p.modulus);
    w = _mm256_set1_epi64x(static_cast<long long>(ws));
    wp = _mm256_set1_epi64x(static_cast<long long>(wps));
    q = _mm256_set1_epi64x(static_cast<long long>(p.modulus));
    q2 = _mm256_set1_epi64x(static_cast<long long>(2 * p.modulus));
  }
};

/// a * sigma mod q, canonical (< q). Valid for any a < 2^64 since
/// q < 2^63: the Shoup estimate is off by at most one q.
inline __m256i shoup_mul(__m256i a, const ShoupCtx& c) {
  const __m256i qest = mul64_hi(a, c.wp);
  const __m256i r = _mm256_sub_epi64(mul64_lo(a, c.w), mul64_lo(qest, c.q));
  return cond_sub(r, c.q);
}

// ---- fingerprint -----------------------------------------------------------

/// AVX2 needs headroom: the suffix accumulator reaches 4q (so q < 2^62)
/// and base codes 0..3 are added without a `% q` (so q > 4).
inline bool moduli_supported(const FingerprintJob& job) {
  auto ok = [](std::uint64_t q) { return q > 4 && q < (1ull << 62); };
  return ok(job.primary.modulus) && ok(job.secondary.modulus);
}

/// Prefix + suffix fingerprints for one strip of up to 4 reads.
void fingerprint_strip(const FingerprintJob& job, unsigned r0, unsigned lanes,
                       const ShoupCtx& ca, const ShoupCtx& cb) {
  const unsigned stride = job.stride;
  std::array<unsigned, 4> len{};
  unsigned max_len = 0;
  for (unsigned l = 0; l < lanes; ++l) {
    len[l] = job.lengths[r0 + l];
    max_len = std::max(max_len, len[l]);
  }
  if (max_len == 0) return;
  const std::uint8_t* codes = job.codes.data();
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i two = _mm256_set1_epi64x(2);

  // Prefixes, front-aligned: P_k = P_{k-1} * sigma + c_k. Lanes past their
  // read length keep evolving on the zero-padded tail but are not stored.
  __m256i pa = _mm256_setzero_si256();
  __m256i pb = _mm256_setzero_si256();
  alignas(32) std::uint64_t spa[4];
  alignas(32) std::uint64_t spb[4];
  for (unsigned k = 0; k < max_len; ++k) {
    const __m256i c = _mm256_set_epi64x(
        lanes > 3 ? codes[static_cast<std::size_t>(r0 + 3) * stride + k] : 0,
        lanes > 2 ? codes[static_cast<std::size_t>(r0 + 2) * stride + k] : 0,
        lanes > 1 ? codes[static_cast<std::size_t>(r0 + 1) * stride + k] : 0,
        codes[static_cast<std::size_t>(r0) * stride + k]);
    pa = cond_sub(_mm256_add_epi64(shoup_mul(pa, ca), c), ca.q);
    pb = cond_sub(_mm256_add_epi64(shoup_mul(pb, cb), c), cb.q);
    _mm256_store_si256(reinterpret_cast<__m256i*>(spa), pa);
    _mm256_store_si256(reinterpret_cast<__m256i*>(spb), pb);
    for (unsigned l = 0; l < lanes; ++l) {
      if (k < len[l]) {
        Key128& out =
            job.prefix[static_cast<std::size_t>(r0 + l) * stride + k];
        out.hi = spa[l];
        out.lo = spb[l];
      }
    }
  }

  // Suffixes, end-aligned: at step k (1-based, from the read's end) every
  // live lane adds c * sigma^(k-1), so the place value is one broadcast
  // per step: S(i) = sum_{j >= i} c_j * sigma^(len-1-j). The multiplier
  // c is 0..3, so c * pow is two masked adds (pow, 2*pow) instead of a
  // multiply; the accumulator peaks below 4q and is re-canonicalized with
  // two conditional subtracts.
  __m256i sa = _mm256_setzero_si256();
  __m256i sb = _mm256_setzero_si256();
  alignas(32) std::uint64_t ssa[4];
  alignas(32) std::uint64_t ssb[4];
  for (unsigned k = 1; k <= max_len; ++k) {
    std::array<std::uint64_t, 4> cl{};
    for (unsigned l = 0; l < lanes; ++l) {
      if (k <= len[l]) {
        cl[l] = codes[static_cast<std::size_t>(r0 + l) * stride +
                      (len[l] - k)];
      }
    }
    const __m256i c = _mm256_set_epi64x(
        static_cast<long long>(cl[3]), static_cast<long long>(cl[2]),
        static_cast<long long>(cl[1]), static_cast<long long>(cl[0]));
    const __m256i bit0 = _mm256_cmpeq_epi64(_mm256_and_si256(c, one), one);
    const __m256i bit1 = _mm256_cmpeq_epi64(_mm256_and_si256(c, two), two);

    const std::uint64_t pa_k = job.pow_primary[k - 1];
    __m256i ta = _mm256_and_si256(
        bit0, _mm256_set1_epi64x(static_cast<long long>(pa_k)));
    ta = _mm256_add_epi64(
        ta, _mm256_and_si256(
                bit1, _mm256_set1_epi64x(static_cast<long long>(2 * pa_k))));
    sa = cond_sub(cond_sub(_mm256_add_epi64(sa, ta), ca.q2), ca.q);

    const std::uint64_t pb_k = job.pow_secondary[k - 1];
    __m256i tb = _mm256_and_si256(
        bit0, _mm256_set1_epi64x(static_cast<long long>(pb_k)));
    tb = _mm256_add_epi64(
        tb, _mm256_and_si256(
                bit1, _mm256_set1_epi64x(static_cast<long long>(2 * pb_k))));
    sb = cond_sub(cond_sub(_mm256_add_epi64(sb, tb), cb.q2), cb.q);

    _mm256_store_si256(reinterpret_cast<__m256i*>(ssa), sa);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ssb), sb);
    for (unsigned l = 0; l < lanes; ++l) {
      if (k <= len[l]) {
        Key128& out = job.suffix[static_cast<std::size_t>(r0 + l) * stride +
                                 (len[l] - k)];
        out.hi = ssa[l];
        out.lo = ssb[l];
      }
    }
  }
}

void avx2_fingerprint(const FingerprintJob& job) {
  const ShoupCtx ca(job.primary);
  const ShoupCtx cb(job.secondary);
  for (unsigned r0 = 0; r0 < job.count; r0 += 4) {
    fingerprint_strip(job, r0, std::min(4u, job.count - r0), ca, cb);
  }
}

// ---- match bounds ----------------------------------------------------------

/// Branchless lower/upper bound for 4 needles at once. Every lane follows
/// the same halving schedule (the search length is shared), so the loop
/// has no data-dependent branches; the probed keys come in via vpgatherqq.
template <bool Upper>
inline void bounds4(const Key128* hay, std::size_t n, const Key128* needles,
                    std::uint32_t* out) {
  const long long* base64 = reinterpret_cast<const long long*>(hay);
  const __m256i n_hi = _mm256_set_epi64x(
      static_cast<long long>(needles[3].hi),
      static_cast<long long>(needles[2].hi),
      static_cast<long long>(needles[1].hi),
      static_cast<long long>(needles[0].hi));
  const __m256i n_lo = _mm256_set_epi64x(
      static_cast<long long>(needles[3].lo),
      static_cast<long long>(needles[2].lo),
      static_cast<long long>(needles[1].lo),
      static_cast<long long>(needles[0].lo));

  // pred(h): advance past h — h < needle for lower_bound, h <= needle for
  // upper_bound.
  auto pred = [&](__m256i h_hi, __m256i h_lo) {
    if constexpr (Upper) {
      // h <= n  <=>  !(n < h)
      const __m256i n_lt_h = _mm256_or_si256(
          cmplt_u64(n_hi, h_hi),
          _mm256_and_si256(_mm256_cmpeq_epi64(n_hi, h_hi),
                           cmplt_u64(n_lo, h_lo)));
      return _mm256_xor_si256(n_lt_h, _mm256_set1_epi64x(-1));
    } else {
      return _mm256_or_si256(
          cmplt_u64(h_hi, n_hi),
          _mm256_and_si256(_mm256_cmpeq_epi64(h_hi, n_hi),
                           cmplt_u64(h_lo, n_lo)));
    }
  };

  __m256i base = _mm256_setzero_si256();
  std::size_t rem = n;
  while (rem > 1) {
    const std::size_t half = rem >> 1;
    const __m256i idx = _mm256_add_epi64(
        base, _mm256_set1_epi64x(static_cast<long long>(half - 1)));
    // Key128 is 16 bytes: hi at element offset 2*idx, lo at 2*idx + 1.
    const __m256i off = _mm256_slli_epi64(idx, 1);
    const __m256i h_hi = _mm256_i64gather_epi64(base64, off, 8);
    const __m256i h_lo = _mm256_i64gather_epi64(base64 + 1, off, 8);
    const __m256i adv = pred(h_hi, h_lo);
    base = _mm256_add_epi64(
        base, _mm256_and_si256(
                  adv, _mm256_set1_epi64x(static_cast<long long>(half))));
    rem -= half;
  }
  // Final probe at `base` itself; the mask is -1 where the answer moves
  // one past it.
  const __m256i off = _mm256_slli_epi64(base, 1);
  const __m256i h_hi = _mm256_i64gather_epi64(base64, off, 8);
  const __m256i h_lo = _mm256_i64gather_epi64(base64 + 1, off, 8);
  const __m256i ans = _mm256_sub_epi64(base, pred(h_hi, h_lo));
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), ans);
  for (unsigned l = 0; l < 4; ++l) {
    out[l] = static_cast<std::uint32_t>(lanes[l]);
  }
}

void avx2_match_bounds(std::span<const Key128> needles,
                       std::span<const Key128> haystack,
                       std::span<std::uint32_t> lower,
                       std::span<std::uint32_t> upper) {
  if (haystack.empty()) {
    std::fill(lower.begin(), lower.end(), 0u);
    std::fill(upper.begin(), upper.end(), 0u);
    return;
  }
  std::size_t i = 0;
  for (; i + 4 <= needles.size(); i += 4) {
    bounds4<false>(haystack.data(), haystack.size(), needles.data() + i,
                   lower.data() + i);
    bounds4<true>(haystack.data(), haystack.size(), needles.data() + i,
                  upper.data() + i);
  }
  for (; i < needles.size(); ++i) {
    lower[i] = static_cast<std::uint32_t>(
        std::lower_bound(haystack.begin(), haystack.end(), needles[i]) -
        haystack.begin());
    upper[i] = static_cast<std::uint32_t>(
        std::upper_bound(haystack.begin(), haystack.end(), needles[i]) -
        haystack.begin());
  }
}

#endif  // LASAGNA_AVX2_IMPL

class Avx2Backend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override { return "avx2"; }

  [[nodiscard]] bool available() const override {
#ifdef LASAGNA_AVX2_IMPL
    return cpu_features().avx2;
#else
    return false;
#endif
  }

  void fingerprint(const FingerprintJob& job, DeviceContext* ctx) override {
#ifdef LASAGNA_AVX2_IMPL
    require_available();
    if (job.count == 0) return;
    if (!moduli_supported(job)) {
      // Tiny or >= 2^62 moduli (e.g. FingerprintConfig::weak in tests)
      // violate the vector path's headroom assumptions; results must stay
      // byte-identical, so hand the whole job to scalar.
      scalar_backend().fingerprint(job, ctx);
      return;
    }
    avx2_fingerprint(job);
#else
    (void)job;
    (void)ctx;
    throw_not_compiled();
#endif
  }

  void match_bounds(std::span<const Key128> needles,
                    std::span<const Key128> haystack,
                    std::span<std::uint32_t> lower,
                    std::span<std::uint32_t> upper, DeviceContext*) override {
    if (lower.size() != needles.size() || upper.size() != needles.size()) {
      throw std::invalid_argument("match_bounds: output size mismatch");
    }
#ifdef LASAGNA_AVX2_IMPL
    require_available();
    avx2_match_bounds(needles, haystack, lower, upper);
#else
    (void)haystack;
    throw_not_compiled();
#endif
  }

  void sort_pairs(std::span<Key128> keys, std::span<std::uint64_t> values,
                  DeviceContext* ctx) override {
    if (keys.size() != values.size()) {
      throw std::invalid_argument("sort_pairs: key/value size mismatch");
    }
#ifdef LASAGNA_AVX2_IMPL
    require_available();
    scalar_backend().sort_pairs(keys, values, ctx);
#else
    (void)ctx;
    throw_not_compiled();
#endif
  }

 private:
  void require_available() const {
    if (!available()) {
      throw std::runtime_error("avx2 backend: cpu does not support AVX2");
    }
  }
  [[noreturn]] static void throw_not_compiled() {
    throw std::runtime_error("avx2 backend: not compiled in (LASAGNA_AVX2)");
  }
};

}  // namespace

Backend& avx2_backend() {
  static Avx2Backend backend;
  return backend;
}

}  // namespace lasagna::kernel
