// On-wire codec for shuffle chunks (paper section III-E: the all-to-all
// fingerprint shuffle is the dominant network phase; compressing it trades
// cheap host cycles for scarce wire bytes).
//
// A wire payload is one tag byte followed by the encoded body:
//
//   kRaw   — the logical bytes verbatim. Always valid; the escape when the
//            delta body is no smaller, and the self-push (src == dst)
//            format.
//   kDelta — FpRecord-aware varint delta. The chunk is a byte-slice of a
//            24-byte-record stream (chunks are cut at kShuffleChunkBytes,
//            not record boundaries, so a head/tail fragment is carried
//            raw); each whole record stores zigzag-varint deltas of
//            fp.hi / fp.lo / vertex / pad against the previous record.
//            Fingerprints are near-uniform below 2^61, so their deltas
//            mostly take 9 varint bytes against 8 raw; the gain comes
//            from vertex ids, which arrive in emission order (small
//            deltas), and pad, which is always zero.
//
// encode_chunk keeps the delta body only when it is smaller than the raw
// payload, so decode_chunk(encode_chunk(x)) == x for arbitrary bytes and
// the wire size never exceeds logical size + 1 tag byte. Both directions
// are pure byte-for-byte functions: compression can never perturb shuffle
// content, only the modeled wire-byte and host-time charges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lasagna::dist::codec {

using Payload = std::vector<std::byte>;

enum class Method : std::uint8_t {
  kRaw = 0,
  kDelta = 1,
};

/// Encode `logical` for the wire: the delta body when it is smaller than
/// the raw payload, raw otherwise. `record_phase` is the offset of the
/// chunk's first byte within its FpRecord (bytes mod 24); any phase is fine
/// — fragments travel raw inside the encoding.
[[nodiscard]] Payload encode_chunk(std::span<const std::byte> logical,
                                   std::size_t record_phase = 0);

/// Encode without trying any compression (tag kRaw). Used for self-pushes,
/// where no wire or codec cost is modeled.
[[nodiscard]] Payload encode_raw(std::span<const std::byte> logical);

/// Decode a wire payload back to the exact logical bytes. Throws
/// std::invalid_argument on a malformed payload or an unknown tag; never
/// returns more than 6x the wire size (a delta record takes at least 4
/// wire bytes).
[[nodiscard]] Payload decode_chunk(std::span<const std::byte> wire);

/// The method tag of an encoded payload.
[[nodiscard]] Method method(std::span<const std::byte> wire);

}  // namespace lasagna::dist::codec
