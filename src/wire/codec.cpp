#include "wire/codec.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

#include "obs/trace.h"

namespace idgka::wire {

namespace {

constexpr std::size_t kMaxNameLen = 255;
constexpr std::size_t kMaxTypeLen = 255;
// Accounting values above this would overflow downstream energy sums long
// before any real radio could transmit them.
constexpr std::uint64_t kMaxDeclaredBits = 1ULL << 48;

// ----------------------------------------------------------- encode side ---

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::uint8_t* write_varint(std::uint8_t* p, std::uint64_t v) {
  // Unrolled for the 1- and 2-byte encodings that cover every length and id
  // a round frame carries; the loop tail only runs for >14-bit values.
  if (v < 0x80) {
    *p++ = static_cast<std::uint8_t>(v);
    return p;
  }
  if (v < 0x4000) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    *p++ = static_cast<std::uint8_t>(v >> 7);
    return p;
  }
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

void check_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxNameLen) {
    throw std::invalid_argument("wire::encode: field name must be 1..255 bytes: '" + name +
                                "'");
  }
}

std::uint8_t* write_name(std::uint8_t* p, const std::string& name) {
  p = write_varint(p, name.size());
  std::memcpy(p, name.data(), name.size());
  return p + name.size();
}

// Big-endian minimal magnitude straight from the limb array — the byte
// count comes from bit_length(), so nothing is materialised up front. The
// partial top limb goes out byte-by-byte; every full limb below it is one
// byte-swapped 8-byte store.
std::uint8_t* write_int_mag(std::uint8_t* p, const mpint::BigInt& v, std::size_t nbytes) {
  std::size_t i = nbytes;
  while (i & 7) {
    --i;
    *p++ = static_cast<std::uint8_t>(v.limb(i >> 3) >> ((i & 7) * 8));
  }
  while (i != 0) {
    i -= 8;
    const std::uint64_t w = __builtin_bswap64(static_cast<std::uint64_t>(v.limb(i >> 3)));
    std::memcpy(p, &w, 8);
    p += 8;
  }
  return p;
}

// Payload::put_* appends unconditionally; a duplicate name within a kind
// would encode into a frame the strict decoder rejects at every receiver,
// so it must fail loudly at the sender instead. Quadratic scan for the
// typical handful of fields, sort-based above that.
template <typename Vec>
void reject_duplicates(const Vec& fields, const char* kind) {
  if (fields.size() <= 12) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      for (std::size_t j = i + 1; j < fields.size(); ++j) {
        if (fields[i].first == fields[j].first) {
          throw std::invalid_argument(std::string("wire::encode: duplicate ") + kind +
                                      " field '" + fields[i].first + "'");
        }
      }
    }
    return;
  }
  std::vector<const std::string*> names;
  names.reserve(fields.size());
  for (const auto& f : fields) names.push_back(&f.first);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (std::size_t i = 0; i + 1 < names.size(); ++i) {
    if (*names[i] == *names[i + 1]) {
      throw std::invalid_argument(std::string("wire::encode: duplicate ") + kind + " field '" +
                                  *names[i] + "'");
    }
  }
}

// ----------------------------------------------------------- decode side ---
//
// The decoder is one validating left-to-right scan over a raw cursor pair
// (p, end): each primitive checks the remaining window exactly once and
// advances p, the varint reader is unrolled for the 1- and 2-byte
// encodings that cover every length and id a round frame carries, and
// integer magnitudes go to BigInt::from_bytes_be, which bulk-loads eight
// bytes per limb. Strictness is unchanged from the historical
// Reader-class decoder: truncation, non-minimal varints/integers,
// out-of-order or duplicate fields and trailing bytes all throw.

struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;

  [[nodiscard]] std::size_t remaining() const { return static_cast<std::size_t>(end - p); }
  [[nodiscard]] bool done() const { return p == end; }
};

[[noreturn]] void fail_truncated(const char* what) {
  throw DecodeError(std::string("wire: truncated ") + what);
}

std::uint8_t read_u8(Cursor& c, const char* what) {
  if (c.p == c.end) fail_truncated(what);
  return *c.p++;
}

std::span<const std::uint8_t> take(Cursor& c, std::size_t n, const char* what) {
  if (c.remaining() < n) fail_truncated(what);
  const std::span<const std::uint8_t> out(c.p, n);
  c.p += n;
  return out;
}

/// Minimal unsigned LEB128; rejects >64-bit values and padded encodings.
std::uint64_t read_varint(Cursor& c, const char* what) {
  if (c.p == c.end) fail_truncated(what);
  const std::uint8_t b0 = *c.p;
  if (b0 < 0x80) {  // 1-byte fast path: every kind/len byte in practice
    ++c.p;
    return b0;
  }
  if (c.end - c.p >= 2 && c.p[1] < 0x80) {  // 2-byte fast path
    const std::uint8_t b1 = c.p[1];
    if (b1 == 0) throw DecodeError(std::string("wire: non-minimal varint in ") + what);
    c.p += 2;
    return (static_cast<std::uint64_t>(b1) << 7) | (b0 & 0x7F);
  }
  std::uint64_t value = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = read_u8(c, what);
    const std::uint64_t group = byte & 0x7F;
    if (shift == 63 && group > 1) {
      throw DecodeError(std::string("wire: varint overflow in ") + what);
    }
    value |= group << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift != 0) {
        throw DecodeError(std::string("wire: non-minimal varint in ") + what);
      }
      return value;
    }
  }
  throw DecodeError(std::string("wire: varint overflow in ") + what);
}

std::uint32_t read_varint_u32(Cursor& c, const char* what) {
  const std::uint64_t v = read_varint(c, what);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw DecodeError(std::string("wire: value exceeds 32 bits in ") + what);
  }
  return static_cast<std::uint32_t>(v);
}

/// A length that must fit in the remaining buffer.
std::size_t read_length(Cursor& c, const char* what) {
  const std::uint64_t v = read_varint(c, what);
  if (v > c.remaining()) {
    throw DecodeError(std::string("wire: declared length exceeds frame in ") + what);
  }
  return static_cast<std::size_t>(v);
}

/// Fixed header fields, read before the payload.
struct Header {
  std::uint32_t sender = 0;
  std::optional<std::uint32_t> recipient;
  std::string type;
  std::uint64_t declared_bits = 0;
  std::uint64_t field_count = 0;
};

Header read_header(Cursor& c) {
  if (read_u8(c, "magic") != kMagic) throw DecodeError("wire: bad magic");
  if (read_u8(c, "version") != kVersion) throw DecodeError("wire: unsupported version");
  const std::uint8_t flags = read_u8(c, "flags");
  if ((flags & ~kFlagRecipient) != 0) throw DecodeError("wire: unknown flags");

  Header h;
  h.sender = read_varint_u32(c, "sender");
  if ((flags & kFlagRecipient) != 0) h.recipient = read_varint_u32(c, "recipient");
  h.declared_bits = read_varint(c, "declared_bits");
  if (h.declared_bits > kMaxDeclaredBits) throw DecodeError("wire: declared_bits too large");
  const std::size_t type_len = read_length(c, "type");
  if (type_len > kMaxTypeLen) throw DecodeError("wire: type label too long");
  const auto type = take(c, type_len, "type");
  h.type.assign(type.begin(), type.end());
  h.field_count = read_varint(c, "field_count");
  return h;
}

std::string read_name(Cursor& c) {
  const std::size_t len = read_length(c, "field name");
  if (len == 0 || len > kMaxNameLen) throw DecodeError("wire: field name must be 1..255 bytes");
  const auto bytes = take(c, len, "field name");
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

Frame encode(const net::Message& msg) {
  if (msg.type.size() > kMaxTypeLen) {
    throw std::invalid_argument("wire::encode: type label exceeds 255 bytes");
  }
  if (msg.declared_bits > kMaxDeclaredBits) {
    throw std::invalid_argument("wire::encode: declared_bits too large");
  }
  const auto& ints = msg.payload.ints();
  const auto& blobs = msg.payload.blobs();
  const auto& u32s = msg.payload.u32s();
  reject_duplicates(ints, "int");
  reject_duplicates(blobs, "blob");
  reject_duplicates(u32s, "u32");

  // Sizing pass: every field's exact wire width (int magnitudes straight
  // from bit_length), so the single allocation below is the final buffer —
  // no push_back growth and no intermediate byte vectors.
  const std::size_t field_count = ints.size() + blobs.size() + u32s.size();
  std::size_t total = 3 + varint_size(msg.sender) + varint_size(msg.declared_bits) +
                      varint_size(msg.type.size()) + msg.type.size() +
                      varint_size(field_count);
  if (msg.recipient.has_value()) total += varint_size(*msg.recipient);
  std::vector<std::size_t> int_lens;
  int_lens.reserve(ints.size());
  for (const auto& [name, value] : ints) {
    if (value.negative()) {
      throw std::invalid_argument("wire::encode: negative integer field '" + name + "'");
    }
    check_name(name);
    const std::size_t mag = (value.bit_length() + 7) / 8;  // minimal; zero => empty
    int_lens.push_back(mag);
    total += 1 + varint_size(name.size()) + name.size() + varint_size(mag) + mag;
  }
  for (const auto& [name, value] : blobs) {
    check_name(name);
    total += 1 + varint_size(name.size()) + name.size() + varint_size(value.size()) +
             value.size();
  }
  for (const auto& [name, value] : u32s) {
    (void)value;
    check_name(name);
    total += 1 + varint_size(name.size()) + name.size() + 4;
  }

  std::vector<std::uint8_t> out(total);
  std::uint8_t* p = out.data();
  *p++ = kMagic;
  *p++ = kVersion;
  *p++ = msg.recipient.has_value() ? kFlagRecipient : 0;
  p = write_varint(p, msg.sender);
  if (msg.recipient.has_value()) p = write_varint(p, *msg.recipient);
  p = write_varint(p, msg.declared_bits);
  p = write_varint(p, msg.type.size());
  if (!msg.type.empty()) {
    std::memcpy(p, msg.type.data(), msg.type.size());
    p += msg.type.size();
  }
  p = write_varint(p, field_count);

  std::size_t idx = 0;
  for (const auto& [name, value] : ints) {
    *p++ = kKindInt;
    p = write_name(p, name);
    const std::size_t mag = int_lens[idx++];
    p = write_varint(p, mag);
    p = write_int_mag(p, value, mag);
  }
  for (const auto& [name, value] : blobs) {
    *p++ = kKindBlob;
    p = write_name(p, name);
    p = write_varint(p, value.size());
    if (!value.empty()) {
      std::memcpy(p, value.data(), value.size());
      p += value.size();
    }
  }
  for (const auto& [name, value] : u32s) {
    *p++ = kKindU32;
    p = write_name(p, name);
    *p++ = static_cast<std::uint8_t>(value >> 24);
    *p++ = static_cast<std::uint8_t>(value >> 16);
    *p++ = static_cast<std::uint8_t>(value >> 8);
    *p++ = static_cast<std::uint8_t>(value);
  }
  if (p != out.data() + total) {
    throw std::logic_error("wire::encode: sizing pass disagrees with writer");
  }
  OBS_COUNT("wire.encodes", 1);
  OBS_COUNT("wire.encoded_bytes", out.size());
  OBS_RECORD("wire.frame_bytes", out.size());
  OBS_INSTANT_ARG("wire.encode", "wire", out.size());
  return Frame(std::move(out), msg.accounted_bits(), msg.sender);
}

net::Message decode(std::span<const std::uint8_t> bytes) {
  // Decode-error accounting rides the exception path: every DecodeError
  // that escapes this frame is one rejected frame, wherever it was thrown.
  struct DecodeScope {
    std::size_t bytes;
    bool ok = false;
    ~DecodeScope() {
      if (ok) {
        OBS_COUNT("wire.decodes", 1);
        OBS_COUNT("wire.decoded_bytes", bytes);
      } else {
        OBS_COUNT("wire.decode_errors", 1);
        OBS_INSTANT("wire.decode_error", "wire");
      }
    }
  } scope{bytes.size()};

  Cursor c{bytes.data(), bytes.data() + bytes.size()};
  const Header h = read_header(c);

  net::Message msg;
  msg.sender = h.sender;
  msg.recipient = h.recipient;
  msg.type = h.type;
  msg.declared_bits = static_cast<std::size_t>(h.declared_bits);

  std::uint8_t last_kind = 0;
  for (std::uint64_t i = 0; i < h.field_count; ++i) {
    const std::uint8_t kind = read_u8(c, "field kind");
    if (kind != kKindInt && kind != kKindBlob && kind != kKindU32) {
      throw DecodeError("wire: unknown field kind");
    }
    if (kind < last_kind) throw DecodeError("wire: field kinds out of canonical order");
    last_kind = kind;
    std::string name = read_name(c);
    switch (kind) {
      case kKindInt: {
        if (msg.payload.has_int(name)) throw DecodeError("wire: duplicate int '" + name + "'");
        const std::size_t len = read_length(c, "int value");
        const auto mag = take(c, len, "int value");
        if (!mag.empty() && mag.front() == 0) {
          throw DecodeError("wire: non-minimal integer '" + name + "'");
        }
        msg.payload.put_int(std::move(name), mpint::BigInt::from_bytes_be(mag));
        break;
      }
      case kKindBlob: {
        if (msg.payload.has_blob(name)) {
          throw DecodeError("wire: duplicate blob '" + name + "'");
        }
        const std::size_t len = read_length(c, "blob value");
        const auto blob = take(c, len, "blob value");
        msg.payload.put_blob(std::move(name), std::vector<std::uint8_t>(blob.begin(), blob.end()));
        break;
      }
      default: {  // kKindU32
        if (msg.payload.has_u32(name)) throw DecodeError("wire: duplicate u32 '" + name + "'");
        const auto be = take(c, 4, "u32 value");
        std::uint32_t value;
        std::memcpy(&value, be.data(), 4);
        value = __builtin_bswap32(value);
        msg.payload.put_u32(std::move(name), value);
        break;
      }
    }
  }
  if (!c.done()) throw DecodeError("wire: trailing garbage after payload");
  scope.ok = true;
  return msg;
}

net::Message decode(const Frame& frame) { return decode(frame.bytes()); }

void assert_roundtrip(const net::Message& msg, const Frame& frame) {
  const net::Message back = decode(frame);
  if (!(back == msg)) {
    throw std::logic_error("wire: frame does not decode back to the message (type '" +
                           msg.type + "')");
  }
  const Frame again = encode(back);
  const auto a = frame.bytes();
  const auto b = again.bytes();
  if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
    throw std::logic_error("wire: re-encode is not byte-identical (type '" + msg.type + "')");
  }
  if (msg.payload.wire_bytes() * 8 > frame.size_bits()) {
    throw std::logic_error("wire: payload size model exceeds the true frame size (type '" +
                           msg.type + "')");
  }
  // The paper accounting is either the sender's declared override or the
  // size model — a frame carrying any third value means a layer rewrote
  // accounting silently.
  if (frame.accounted_bits() != msg.accounted_bits()) {
    throw std::logic_error("wire: accounted bits drifted from the message (type '" + msg.type +
                           "')");
  }
}

}  // namespace idgka::wire
