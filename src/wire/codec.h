// Canonical binary wire codec for net::Message.
//
// Every message that touches the broadcast medium is serialized into one
// byte-accurate frame; the frame — not the typed C++ object — is what the
// network fans out, what the link model prices, and what an adversary can
// sniff, flip or truncate. The format is canonical (one valid encoding per
// message: deterministic field order, minimal varints, minimal big-integer
// bytes), so encode(decode(encode(m))) == encode(m) byte for byte and a
// frame can double as a protocol transcript for challenge hashing.
//
// Frame layout (all multi-byte scalars explicit, see README "Wire format"):
//
//   0xD6 0x01 flags            magic, version, flags (bit0: has recipient)
//   varint sender
//   [varint recipient]         iff flags bit0
//   varint declared_bits       paper-accounting override (0 = none)
//   varint type_len, bytes     protocol label ("round1", "join-r2", ...)
//   varint field_count
//   field*:
//     kind byte                0x01 INT | 0x02 BLOB | 0x03 U32,
//                              non-decreasing across the frame
//     varint name_len, bytes   1..255 bytes
//     INT : varint len, big-endian magnitude (minimal; zero => len 0)
//     BLOB: varint len, bytes
//     U32 : 4 bytes big-endian
//
// Varints are unsigned LEB128, minimal encoding required. decode() is
// strict: every length is bounds-checked against the remaining buffer, a
// duplicate (kind, name) pair, an out-of-order kind, a non-minimal varint
// or integer, an unknown flag/kind/version and trailing garbage all throw
// DecodeError — never UB, never a partial message.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message.h"

namespace idgka::wire {

inline constexpr std::uint8_t kMagic = 0xD6;
inline constexpr std::uint8_t kVersion = 0x01;
inline constexpr std::uint8_t kFlagRecipient = 0x01;
inline constexpr std::uint8_t kKindInt = 0x01;
inline constexpr std::uint8_t kKindBlob = 0x02;
inline constexpr std::uint8_t kKindU32 = 0x03;

/// A malformed frame was rejected by the strict decoder.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Immutable, ref-counted frame: one encoded message plus the accounting
/// metadata pinned at encode time. Copies share the byte buffer (a
/// broadcast fans one buffer out to every receiver), and the metadata is
/// deliberately *not* recomputed when an adversary rewrites the bytes —
/// radio energy was spent on the frame as transmitted.
class Frame {
 public:
  Frame() = default;
  Frame(std::vector<std::uint8_t> bytes, std::uint64_t accounted_bits,
        std::uint32_t sender)
      : buf_(std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes))),
        accounted_bits_(accounted_bits),
        sender_(sender) {}

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return buf_ ? std::span<const std::uint8_t>(*buf_) : std::span<const std::uint8_t>();
  }
  [[nodiscard]] const std::uint8_t* data() const { return buf_ ? buf_->data() : nullptr; }
  [[nodiscard]] std::size_t size() const { return buf_ ? buf_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// True (codec-accurate) size on air.
  [[nodiscard]] std::size_t size_bits() const { return size() * 8; }
  /// Paper-accounted size: the sender's declared_bits override, or the
  /// Payload size model at encode time (Message::accounted_bits()).
  [[nodiscard]] std::uint64_t accounted_bits() const { return accounted_bits_; }
  /// Originating node, pinned at encode time.
  [[nodiscard]] std::uint32_t sender() const { return sender_; }
  /// Number of Frame copies sharing this buffer (fan-out introspection).
  [[nodiscard]] long use_count() const { return buf_ ? buf_.use_count() : 0; }

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> buf_;
  std::uint64_t accounted_bits_ = 0;
  std::uint32_t sender_ = 0;
};

/// Serializes a message into its unique canonical frame. Throws
/// std::invalid_argument on unencodable input (negative integer value,
/// empty or oversized field name, oversized type label).
[[nodiscard]] Frame encode(const net::Message& msg);

/// Strict decode; throws DecodeError on any malformed input.
[[nodiscard]] net::Message decode(std::span<const std::uint8_t> bytes);
[[nodiscard]] net::Message decode(const Frame& frame);

/// Debug-build guard on every transmission: the frame must decode back to
/// the exact message, re-encode to the exact bytes, the Payload size model
/// must never exceed the true frame size, and the paper accounting must be
/// a declared override or the model — never a silent third value. Throws
/// std::logic_error on violation.
void assert_roundtrip(const net::Message& msg, const Frame& frame);

}  // namespace idgka::wire
