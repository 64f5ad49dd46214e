// Arbitrary-precision unsigned integers, sized for RSA (1024–4096 bit).
// Little-endian 32-bit limbs; division is Knuth's Algorithm D. Modular
// exponentiation runs on the fixed-width 64-bit Montgomery kernel
// (crypto/mont.hpp), fed through to_limbs64/from_limbs64.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rand.hpp"

namespace pprox::crypto {

/// Unsigned big integer. Value semantics; normalized (no leading zero limbs).
class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(std::uint64_t v);

  /// Parses big-endian bytes (the natural wire format for RSA).
  static BigInt from_bytes_be(ByteView bytes);

  /// Parses a hex string (no 0x prefix). Throws on invalid digits.
  static BigInt from_hex(std::string_view hex);

  /// Uniform random value in [0, bound). bound must be nonzero.
  static BigInt random_below(const BigInt& bound, RandomSource& rng);

  /// Random integer with exactly `bits` bits (top bit set).
  static BigInt random_with_bits(std::size_t bits, RandomSource& rng);

  /// Serializes to big-endian bytes, zero-padded/truncated to `width`
  /// (width 0 = minimal length; zero encodes as one 0x00 byte).
  Bytes to_bytes_be(std::size_t width = 0) const;

  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  // Comparisons.
  int compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return compare(o) != 0; }
  bool operator<(const BigInt& o) const { return compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return compare(o) >= 0; }

  // Arithmetic. Subtraction requires *this >= other.
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder; divisor must be nonzero.
  struct DivMod;  // defined after the class: it holds complete BigInt values
  DivMod divmod(const BigInt& divisor) const;
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;

  /// (this ^ exponent) mod modulus over the Montgomery kernel
  /// (crypto/mont.hpp): a 4-bit fixed window whose work depends only on the
  /// bit lengths of the exponent and modulus. The modulus must be odd and at
  /// most 4096 bits, the exponent at most 4096 bits; anything else throws
  /// std::domain_error.
  BigInt modexp(const BigInt& exponent, const BigInt& modulus) const;

  /// Writes the value as `count` little-endian 64-bit limbs, zero-padded.
  /// Throws std::length_error when it needs more than `count` limbs.
  void to_limbs64(std::uint64_t* out, std::size_t count) const;

  /// The value of `count` little-endian 64-bit limbs.
  static BigInt from_limbs64(const std::uint64_t* limbs, std::size_t count);

  static BigInt gcd(BigInt a, BigInt b);

  /// Modular inverse of *this mod m; returns zero when no inverse exists.
  BigInt modinv(const BigInt& m) const;

 private:
  void normalize();
  static BigInt shift_limbs(const BigInt& v, std::size_t limbs);

  std::vector<std::uint32_t> limbs_;  // little-endian, normalized
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

inline BigInt BigInt::operator/(const BigInt& o) const { return divmod(o).quotient; }
inline BigInt BigInt::operator%(const BigInt& o) const { return divmod(o).remainder; }

}  // namespace pprox::crypto
