#include "dist/codec.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/config.hpp"

namespace lasagna::dist::codec {

namespace {

constexpr std::size_t kRecordBytes = sizeof(core::FpRecord);
static_assert(sizeof(core::FpRecord) == 24);

// -- varint / zigzag ---------------------------------------------------------

/// The longest varint a 64-bit value takes; a longer one is malformed.
constexpr std::size_t kMaxVarintBytes = 10;

std::byte* put_varint(std::byte* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::byte>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<std::byte>(v);
  return out;
}

std::uint64_t get_varint(std::span<const std::byte> in, std::size_t& pos) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    if (pos >= in.size() || shift > 63) {
      throw std::invalid_argument("codec: truncated varint");
    }
    const auto b = static_cast<std::uint8_t>(in[pos++]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

/// get_varint without the bounds check: the caller guarantees
/// kMaxVarintBytes readable bytes at `p`.
std::uint64_t get_varint_unchecked(const std::byte*& p) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift <= 63; shift += 7) {
    const auto b = static_cast<std::uint8_t>(*p++);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw std::invalid_argument("codec: truncated varint");
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// -- kDelta ------------------------------------------------------------------

/// A record's worst case: 10-byte varints for fp.hi and fp.lo, 5-byte ones
/// for the 32-bit vertex and pad deltas.
constexpr std::size_t kMaxRecordWireBytes = 2 * kMaxVarintBytes + 2 * 5;
/// The decoder's worst case per record: four varints of any length it
/// accepts.
constexpr std::size_t kMaxRecordReadBytes = 4 * kMaxVarintBytes;

struct Fields {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint32_t vertex = 0;
  std::uint32_t pad = 0;
};

Fields load_fields(const std::byte* p) {
  Fields f;
  std::memcpy(&f.hi, p, 8);
  std::memcpy(&f.lo, p + 8, 8);
  std::memcpy(&f.vertex, p + 16, 4);
  std::memcpy(&f.pad, p + 20, 4);
  return f;
}

void store_fields(const Fields& f, std::byte* p) {
  std::memcpy(p, &f.hi, 8);
  std::memcpy(p + 8, &f.lo, 8);
  std::memcpy(p + 16, &f.vertex, 4);
  std::memcpy(p + 20, &f.pad, 4);
}

/// The record after `prev`, from four zigzag deltas that `read` yields in
/// field order.
template <typename Read>
Fields apply_deltas(const Fields& prev, Read read) {
  Fields cur;
  cur.hi = prev.hi + static_cast<std::uint64_t>(unzigzag(read()));
  cur.lo = prev.lo + static_cast<std::uint64_t>(unzigzag(read()));
  cur.vertex = prev.vertex + static_cast<std::uint32_t>(unzigzag(read()));
  cur.pad = prev.pad + static_cast<std::uint32_t>(unzigzag(read()));
  return cur;
}

/// Body: head_len varint, record count varint, tail_len varint, raw head,
/// per-record zigzag deltas, raw tail. Head completes the record the chunk
/// starts mid-way through; the tail is the trailing partial record.
Payload encode_delta(std::span<const std::byte> logical,
                     std::size_t record_phase) {
  const std::size_t head_len =
      std::min(logical.size(),
               (kRecordBytes - record_phase % kRecordBytes) % kRecordBytes);
  const std::size_t n = (logical.size() - head_len) / kRecordBytes;
  const std::size_t tail_len = logical.size() - head_len - n * kRecordBytes;

  // Written through a pointer into this thread's scratch, sized for the
  // worst case, and copied out at its length: payloads that kept the worst
  // case's capacity raised hgenome-4node-spec's peak RSS by about 13 MB
  // (347 -> 360 MB on a 4-vCPU VM).
  thread_local std::vector<std::byte> scratch;
  const std::size_t worst =
      1 + 3 * kMaxVarintBytes + head_len + n * kMaxRecordWireBytes + tail_len;
  if (scratch.size() < worst) scratch.resize(worst);
  std::byte* w = scratch.data();
  *w++ = static_cast<std::byte>(Method::kDelta);
  w = put_varint(w, head_len);
  w = put_varint(w, n);
  w = put_varint(w, tail_len);
  w = std::copy_n(logical.data(), head_len, w);

  Fields prev;
  const std::byte* p = logical.data() + head_len;
  for (std::size_t i = 0; i < n; ++i, p += kRecordBytes) {
    const Fields cur = load_fields(p);
    w = put_varint(w, zigzag(static_cast<std::int64_t>(cur.hi - prev.hi)));
    w = put_varint(w, zigzag(static_cast<std::int64_t>(cur.lo - prev.lo)));
    w = put_varint(
        w, zigzag(static_cast<std::int32_t>(cur.vertex - prev.vertex)));
    w = put_varint(w, zigzag(static_cast<std::int32_t>(cur.pad - prev.pad)));
    prev = cur;
  }
  w = std::copy_n(p, tail_len, w);
  return Payload(scratch.data(), w);
}

Payload decode_delta(std::span<const std::byte> wire) {
  std::size_t pos = 1;  // past the tag
  const std::size_t head_len = get_varint(wire, pos);
  const std::size_t n = get_varint(wire, pos);
  const std::size_t tail_len = get_varint(wire, pos);
  // Bound every size by the wire bytes left before sizing the output: each
  // record takes at least 4 wire bytes (one varint per field).
  std::size_t left = wire.size() - pos;
  if (head_len > left) {
    throw std::invalid_argument("codec: truncated delta head");
  }
  left -= head_len;
  if (n > left / 4 || tail_len > left - 4 * n) {
    throw std::invalid_argument("codec: delta sizes exceed the payload");
  }

  Payload out(head_len + n * kRecordBytes + tail_len);
  std::memcpy(out.data(), wire.data() + pos, head_len);
  pos += head_len;

  Fields prev;
  std::byte* dst = out.data() + head_len;
  std::size_t i = 0;
  // While a record's worst case remains, no varint can run past the end.
  const std::byte* p = wire.data() + pos;
  const std::byte* const end = wire.data() + wire.size();
  for (; i < n && end - p >= static_cast<std::ptrdiff_t>(kMaxRecordReadBytes);
       ++i, dst += kRecordBytes) {
    prev = apply_deltas(prev, [&p] { return get_varint_unchecked(p); });
    store_fields(prev, dst);
  }
  pos = static_cast<std::size_t>(p - wire.data());
  for (; i < n; ++i, dst += kRecordBytes) {
    prev = apply_deltas(prev, [&] { return get_varint(wire, pos); });
    store_fields(prev, dst);
  }
  if (pos + tail_len != wire.size()) {
    throw std::invalid_argument("codec: bad delta tail");
  }
  std::memcpy(out.data() + head_len + n * kRecordBytes, wire.data() + pos,
              tail_len);
  return out;
}

}  // namespace

Payload encode_raw(std::span<const std::byte> logical) {
  Payload out;
  out.reserve(logical.size() + 1);
  out.push_back(static_cast<std::byte>(Method::kRaw));
  out.insert(out.end(), logical.begin(), logical.end());
  return out;
}

Payload encode_chunk(std::span<const std::byte> logical,
                     std::size_t record_phase) {
  Payload delta = encode_delta(logical, record_phase);
  // Raw wins ties: the delta body must beat the logical bytes plus the tag.
  if (delta.size() < logical.size() + 1) return delta;
  return encode_raw(logical);
}

Payload decode_chunk(std::span<const std::byte> wire) {
  if (wire.empty()) throw std::invalid_argument("codec: empty payload");
  switch (method(wire)) {
    case Method::kRaw:
      return Payload(wire.begin() + 1, wire.end());
    case Method::kDelta:
      return decode_delta(wire);
  }
  throw std::invalid_argument("codec: unknown method tag");
}

Method method(std::span<const std::byte> wire) {
  if (wire.empty()) throw std::invalid_argument("codec: empty payload");
  const auto tag = static_cast<std::uint8_t>(wire[0]);
  if (tag > static_cast<std::uint8_t>(Method::kDelta)) {
    throw std::invalid_argument("codec: unknown method tag");
  }
  return static_cast<Method>(tag);
}

}  // namespace lasagna::dist::codec
