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

void put_varint(Payload& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
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

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// -- kDelta ------------------------------------------------------------------

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

  Payload out;
  out.reserve(logical.size() + 8);
  out.push_back(static_cast<std::byte>(Method::kDelta));
  put_varint(out, head_len);
  put_varint(out, n);
  put_varint(out, tail_len);
  out.insert(out.end(), logical.begin(),
             logical.begin() + static_cast<std::ptrdiff_t>(head_len));

  Fields prev;
  const std::byte* p = logical.data() + head_len;
  for (std::size_t i = 0; i < n; ++i, p += kRecordBytes) {
    const Fields cur = load_fields(p);
    put_varint(out, zigzag(static_cast<std::int64_t>(cur.hi - prev.hi)));
    put_varint(out, zigzag(static_cast<std::int64_t>(cur.lo - prev.lo)));
    put_varint(out, zigzag(static_cast<std::int32_t>(cur.vertex - prev.vertex)));
    put_varint(out, zigzag(static_cast<std::int32_t>(cur.pad - prev.pad)));
    prev = cur;
  }
  out.insert(out.end(), logical.end() - static_cast<std::ptrdiff_t>(tail_len),
             logical.end());
  return out;
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
  for (std::size_t i = 0; i < n; ++i, dst += kRecordBytes) {
    Fields cur;
    cur.hi = prev.hi + static_cast<std::uint64_t>(unzigzag(get_varint(wire, pos)));
    cur.lo = prev.lo + static_cast<std::uint64_t>(unzigzag(get_varint(wire, pos)));
    cur.vertex = prev.vertex +
                 static_cast<std::uint32_t>(unzigzag(get_varint(wire, pos)));
    cur.pad =
        prev.pad + static_cast<std::uint32_t>(unzigzag(get_varint(wire, pos)));
    store_fields(cur, dst);
    prev = cur;
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
