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

// -- kLz ---------------------------------------------------------------------

constexpr std::size_t kLzWindow = 4096;  // offsets fit 12 bits
constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxMatch = kLzMinMatch + 15;  // length fits 4 bits
constexpr std::size_t kLzHashSize = 1u << 13;

std::size_t lz_hash(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 19 & (kLzHashSize - 1);
}

/// Body: logical size varint, then flag-byte token groups (bit i of the
/// flag, LSB first, marks token i a match). Literal token: one byte.
/// Match token: 16 bits = 12-bit back-offset (1-based) | 4-bit (len - 4).
Payload encode_lz(std::span<const std::byte> logical) {
  Payload out;
  out.reserve(logical.size() / 2 + 16);
  out.push_back(static_cast<std::byte>(Method::kLz));
  put_varint(out, logical.size());

  std::vector<std::size_t> head(kLzHashSize, SIZE_MAX);
  std::size_t flag_at = SIZE_MAX;
  unsigned flag_bit = 8;
  auto begin_token = [&](bool is_match) {
    if (flag_bit == 8) {
      flag_at = out.size();
      out.push_back(std::byte{0});
      flag_bit = 0;
    }
    if (is_match) {
      out[flag_at] = static_cast<std::byte>(
          static_cast<std::uint8_t>(out[flag_at]) | (1u << flag_bit));
    }
    ++flag_bit;
  };

  std::size_t i = 0;
  while (i < logical.size()) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (i + kLzMinMatch <= logical.size()) {
      const std::size_t h = lz_hash(logical.data() + i);
      const std::size_t cand = head[h];
      if (cand != SIZE_MAX && cand < i && i - cand <= kLzWindow) {
        const std::size_t limit =
            std::min(kLzMaxMatch, logical.size() - i);
        std::size_t len = 0;
        while (len < limit && logical[cand + len] == logical[i + len]) ++len;
        if (len >= kLzMinMatch) {
          best_len = len;
          best_off = i - cand;
        }
      }
      head[h] = i;
    }
    if (best_len > 0) {
      begin_token(true);
      const std::uint16_t token = static_cast<std::uint16_t>(
          ((best_off - 1) << 4) | (best_len - kLzMinMatch));
      out.push_back(static_cast<std::byte>(token & 0xff));
      out.push_back(static_cast<std::byte>(token >> 8));
      i += best_len;
    } else {
      begin_token(false);
      out.push_back(logical[i]);
      ++i;
    }
  }
  return out;
}

Payload decode_lz(std::span<const std::byte> wire) {
  std::size_t pos = 1;
  const std::size_t logical_size = get_varint(wire, pos);
  // No token expands a wire byte into more than kLzMaxMatch bytes.
  if (logical_size > (wire.size() - pos) * kLzMaxMatch) {
    throw std::invalid_argument("codec: lz size exceeds the payload");
  }
  Payload out;
  out.reserve(logical_size);
  unsigned flag = 0;
  unsigned flag_bit = 8;
  while (out.size() < logical_size) {
    if (flag_bit == 8) {
      if (pos >= wire.size()) {
        throw std::invalid_argument("codec: truncated lz stream");
      }
      flag = static_cast<std::uint8_t>(wire[pos++]);
      flag_bit = 0;
    }
    const bool is_match = (flag >> flag_bit) & 1;
    ++flag_bit;
    if (is_match) {
      if (pos + 2 > wire.size()) {
        throw std::invalid_argument("codec: truncated lz match");
      }
      const std::uint16_t token = static_cast<std::uint16_t>(
          static_cast<std::uint8_t>(wire[pos]) |
          (static_cast<std::uint8_t>(wire[pos + 1]) << 8));
      pos += 2;
      const std::size_t off = (token >> 4) + 1;
      const std::size_t len = (token & 0xf) + kLzMinMatch;
      if (off > out.size() || out.size() + len > logical_size) {
        throw std::invalid_argument("codec: bad lz match");
      }
      const std::size_t src = out.size() - off;
      for (std::size_t k = 0; k < len; ++k) out.push_back(out[src + k]);
    } else {
      if (pos >= wire.size()) {
        throw std::invalid_argument("codec: truncated lz literal");
      }
      out.push_back(wire[pos++]);
    }
  }
  if (pos != wire.size()) {
    throw std::invalid_argument("codec: trailing lz bytes");
  }
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
  Payload best = encode_raw(logical);
  if (!logical.empty()) {
    Payload delta = encode_delta(logical, record_phase);
    if (delta.size() < best.size()) best = std::move(delta);
    Payload lz = encode_lz(logical);
    if (lz.size() < best.size()) best = std::move(lz);
  }
  return best;
}

Payload decode_chunk(std::span<const std::byte> wire) {
  if (wire.empty()) throw std::invalid_argument("codec: empty payload");
  switch (method(wire)) {
    case Method::kRaw:
      return Payload(wire.begin() + 1, wire.end());
    case Method::kDelta:
      return decode_delta(wire);
    case Method::kLz:
      return decode_lz(wire);
  }
  throw std::invalid_argument("codec: unknown method tag");
}

Method method(std::span<const std::byte> wire) {
  if (wire.empty()) throw std::invalid_argument("codec: empty payload");
  const auto tag = static_cast<std::uint8_t>(wire[0]);
  if (tag > static_cast<std::uint8_t>(Method::kLz)) {
    throw std::invalid_argument("codec: unknown method tag");
  }
  return static_cast<Method>(tag);
}

}  // namespace lasagna::dist::codec
