// Arbitrary-precision integer arithmetic.
//
// This is the numeric substrate for every cryptographic scheme in the
// repository: the GQ ID-based signature (1024-bit RSA-type modulus), the
// Burmester-Desmedt group (1024-bit prime field), DSA, ECDSA field/scalar
// arithmetic and the supersingular pairing field.
//
// Representation: sign-magnitude with 64-bit little-endian limbs. The
// magnitude is always normalized (no trailing zero limbs); zero has an empty
// limb vector and positive sign.
#pragma once

#include <compare>
#include <type_traits>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace idgka::mpint {

/// Arbitrary-precision signed integer.
class BigInt {
 public:
  using Limb = std::uint64_t;

  /// Constructs zero.
  BigInt() = default;
  /// Constructs from any built-in integer (sign-magnitude).
  template <typename T>
    requires std::is_integral_v<T>
  BigInt(T v) {  // NOLINT(google-explicit-constructor): numeric literal use
    if constexpr (std::is_signed_v<T>) {
      if (v < 0) {
        negative_ = true;
        limbs_.push_back(static_cast<Limb>(-static_cast<std::int64_t>(v)));
        return;
      }
    }
    if (v != 0) limbs_.push_back(static_cast<Limb>(v));
  }

  /// Parses a hexadecimal string, optionally prefixed with '-' or "0x".
  /// Throws std::invalid_argument on malformed input.
  static BigInt from_hex(std::string_view s);
  /// Parses a decimal string, optionally prefixed with '-'.
  static BigInt from_dec(std::string_view s);
  /// Interprets big-endian bytes as a non-negative integer.
  static BigInt from_bytes_be(std::span<const std::uint8_t> bytes);

  /// Lower-case hex without prefix ("0" for zero, leading '-' if negative).
  [[nodiscard]] std::string to_hex() const;
  /// Decimal representation.
  [[nodiscard]] std::string to_dec() const;
  /// Big-endian bytes of the magnitude, left-padded with zeros to at least
  /// `min_len` bytes. The sign is discarded; zero encodes as `min_len` zero
  /// bytes (empty if min_len == 0).
  [[nodiscard]] std::vector<std::uint8_t> to_bytes_be(std::size_t min_len = 0) const;

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_one() const { return !negative_ && limbs_.size() == 1 && limbs_[0] == 1; }
  [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1U) != 0U; }
  [[nodiscard]] bool is_even() const { return !is_odd(); }
  [[nodiscard]] bool negative() const { return negative_; }

  /// Number of significant bits of the magnitude (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;
  /// Value of magnitude bit `i` (false beyond bit_length()).
  [[nodiscard]] bool bit(std::size_t i) const;
  /// Number of significant limbs.
  [[nodiscard]] std::size_t limb_count() const { return limbs_.size(); }
  /// Limb `i` of the magnitude (0 beyond limb_count()).
  [[nodiscard]] Limb limb(std::size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }
  /// Least-significant 64 bits of the magnitude.
  [[nodiscard]] Limb low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  [[nodiscard]] BigInt abs() const;

  BigInt operator-() const;
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  /// Truncated division (C semantics: quotient rounds toward zero).
  BigInt operator/(const BigInt& o) const;
  /// Remainder with the sign of the dividend (C semantics).
  BigInt operator%(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }
  BigInt& operator/=(const BigInt& o) { return *this = *this / o; }
  BigInt& operator%=(const BigInt& o) { return *this = *this % o; }
  BigInt& operator<<=(std::size_t b) { return *this = *this << b; }
  BigInt& operator>>=(std::size_t b) { return *this = *this >> b; }

  bool operator==(const BigInt& o) const = default;
  std::strong_ordering operator<=>(const BigInt& o) const;

  /// Simultaneous quotient and remainder (truncated semantics).
  /// Throws std::domain_error on division by zero.
  static void divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r);

  /// Euclidean remainder: result always in [0, |m|). Throws on m == 0.
  [[nodiscard]] BigInt mod(const BigInt& m) const;

  /// Internal access for performance-sensitive callers (Montgomery kernels).
  [[nodiscard]] const std::vector<Limb>& limbs() const { return limbs_; }
  /// Writes the magnitude into `out[0, k)`, zero-padded — the allocation-free
  /// exit into fixed-width limb buffers (Residue storage, arena scratch).
  /// Requires limb_count() <= k; the sign is discarded.
  void copy_limbs_to(Limb* out, std::size_t k) const;
  /// Builds a non-negative value from raw little-endian limbs (normalizes).
  static BigInt from_limbs(std::vector<Limb> limbs);
  /// Raw-buffer overload: copies `k` limbs (trailing zeros fine).
  static BigInt from_limbs(const Limb* limbs, std::size_t k);

 private:
  static int cmp_mag(const BigInt& a, const BigInt& b);
  static std::vector<Limb> add_mag(const std::vector<Limb>& a, const std::vector<Limb>& b);
  // Requires |a| >= |b|.
  static std::vector<Limb> sub_mag(const std::vector<Limb>& a, const std::vector<Limb>& b);
  static std::vector<Limb> mul_mag(const std::vector<Limb>& a, const std::vector<Limb>& b);
  static std::vector<Limb> mul_school(std::span<const Limb> a, std::span<const Limb> b);
  static std::vector<Limb> mul_karatsuba(std::span<const Limb> a, std::span<const Limb> b);
  void normalize();

  bool negative_ = false;
  std::vector<Limb> limbs_;  // little-endian magnitude
};

// gcd and mod_inverse share one binary GCD core on limbs (Pornin, IACR
// ePrint 2020/972): for an odd modulus m it runs rounds of 31 binary-GCD
// steps on 64-bit approximations and applies each round to the full-width
// values in one pass, with the inverse tracked as (u*f + v*g)*2^-31 mod m.
// It works in fixed limb buffers (stack up to 2048-bit operands) and
// allocates only its result. It is variable-time: its running time depends
// on the operand values, as the Euclid it replaced did.

/// Greatest common divisor of |a| and |b| (0 when both are zero). Strips the
/// common power of two, then runs the core with the odd operand as modulus.
[[nodiscard]] BigInt gcd(const BigInt& a, const BigInt& b);

/// Modular inverse of a modulo m (m > 0; a may be negative or >= m), in
/// [0, m). Throws std::domain_error when gcd(a, m) != 1. An odd m runs the
/// core directly; an even m (e^{-1} mod phi in generate_gq_modulus) goes
/// through the odd side: y = m^{-1} mod a, then a^{-1} = m - (m*y - 1)/a.
[[nodiscard]] BigInt mod_inverse(const BigInt& a, const BigInt& m);

/// (a * b) mod m with full-width intermediate.
[[nodiscard]] BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m);

}  // namespace idgka::mpint
