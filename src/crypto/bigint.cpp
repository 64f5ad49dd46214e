#include "crypto/bigint.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/mont.hpp"

namespace pprox::crypto {
namespace {

constexpr std::uint64_t kBase = 1ULL << 32;

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes_be(ByteView bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // byte i (big-endian) contributes to bit position 8*(size-1-i)
    const std::size_t bit = 8 * (bytes.size() - 1 - i);
    out.limbs_[bit / 32] |= static_cast<std::uint32_t>(bytes[i]) << (bit % 32);
  }
  out.normalize();
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  BigInt out;
  out.limbs_.assign((hex.size() * 4 + 31) / 32, 0);
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const int d = hex_digit(hex[hex.size() - 1 - i]);
    if (d < 0) throw std::invalid_argument("BigInt::from_hex: bad digit");
    const std::size_t bit = 4 * i;
    out.limbs_[bit / 32] |= static_cast<std::uint32_t>(d) << (bit % 32);
  }
  out.normalize();
  return out;
}

Bytes BigInt::to_bytes_be(std::size_t width) const {
  const std::size_t min_len = (bit_length() + 7) / 8;
  const std::size_t len = width == 0 ? std::max<std::size_t>(min_len, 1) : width;
  Bytes out(len, 0);
  for (std::size_t i = 0; i < len && i < 4 * limbs_.size(); ++i) {
    const std::uint32_t limb = limbs_[i / 4];
    out[len - 1 - i] = static_cast<std::uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(digits[(limbs_[i] >> shift) & 0xF]);
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = 32 * (limbs_.size() - 1);
  std::uint32_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigInt::compare(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < o.limbs_.size()) sum += o.limbs_[i];
    out.limbs_.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (*this < o) throw std::underflow_error("BigInt subtraction underflow");
  BigInt out;
  out.limbs_.reserve(limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < o.limbs_.size()) diff -= o.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_.push_back(static_cast<std::uint32_t>(diff));
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      const std::uint64_t t = a * o.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(t);
      carry = t >> 32;
    }
    std::size_t k = i + o.limbs_.size();
    while (carry) {
      const std::uint64_t t = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(t);
      carry = t >> 32;
      ++k;
    }
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.normalize();
  return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt division by zero");
  if (*this < divisor) return {BigInt(), *this};

  // Single-limb fast path.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    BigInt q;
    q.limbs_.assign(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    return {q, BigInt(rem)};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set, guaranteeing quotient digit estimates are off by at most 2.
  const std::size_t n = divisor.limbs_.size();
  int shift = 0;
  {
    std::uint32_t top = divisor.limbs_.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  const BigInt u_norm = *this << static_cast<std::size_t>(shift);
  const BigInt v_norm = divisor << static_cast<std::size_t>(shift);
  std::vector<std::uint32_t> u = u_norm.limbs_;
  u.push_back(0);  // virtual top limb u[m+n-1]; keeps every window in range
  const std::vector<std::uint32_t>& v = v_norm.limbs_;
  const std::size_t m = u.size() - n;  // number of quotient digits (j = m-1..0)

  BigInt q;
  q.limbs_.assign(m, 0);
  const std::uint64_t v_top = v[n - 1];
  const std::uint64_t v_next = v[n - 2];

  for (std::size_t j = m; j-- > 0;) {
    // Estimate qhat from the top two limbs of the current remainder window.
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = numerator / v_top;
    std::uint64_t rhat = numerator % v_top;
    while (qhat >= kBase ||
           qhat * v_next > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= kBase) break;
    }

    // Multiply-subtract: u[j..j+n] -= qhat * v.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      std::int64_t t = static_cast<std::int64_t>(u[i + j]) -
                       static_cast<std::int64_t>(p & 0xFFFFFFFFu) - borrow;
      if (t < 0) {
        t += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(t);
    }
    std::int64_t t = static_cast<std::int64_t>(u[j + n]) -
                     static_cast<std::int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large; add v back once.
      t += static_cast<std::int64_t>(kBase);
      --qhat;
      std::uint64_t carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + carry2;
        u[i + j] = static_cast<std::uint32_t>(s);
        carry2 = s >> 32;
      }
      t += static_cast<std::int64_t>(carry2);
      t &= 0xFFFFFFFF;
    }
    u[j + n] = static_cast<std::uint32_t>(t);
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }

  q.normalize();
  BigInt r;
  r.limbs_.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  r.normalize();
  r = r >> static_cast<std::size_t>(shift);
  return {q, r};
}

BigInt BigInt::modexp(const BigInt& exponent, const BigInt& modulus) const {
  if (!modulus.is_odd()) throw std::domain_error("modexp: modulus must be odd");
  const std::size_t mod_bits = modulus.bit_length();
  if (mod_bits == 1) return BigInt();  // everything is 0 mod 1
  const std::size_t s = mont_limbs(mod_bits);
  const std::size_t exp_bits = exponent.bit_length();
  if (s > kMontMaxLimbs || mont_limbs(exp_bits) > kMontMaxLimbs) {
    throw std::domain_error("modexp: operand wider than 4096 bits");
  }
  MontModulus m;
  mont_build(m, modulus, s);

  // Entering Montgomery form multiplies by R^2, which needs a base below R;
  // a wider base is reduced first.
  std::uint64_t x[kMontMaxLimbs];
  if (mont_limbs(bit_length()) > s) {
    (*this % modulus).to_limbs64(x, s);
  } else {
    to_limbs64(x, s);
  }
  mont_mul(x, x, m.rr.data(), m, s);

  std::uint64_t e[kMontMaxLimbs];
  exponent.to_limbs64(e, mont_limbs(exp_bits));
  mont_exp(x, x, e, exp_bits, m, s);

  std::uint64_t one[kMontMaxLimbs] = {};
  one[0] = 1;
  mont_mul(x, x, one, m, s);  // leave Montgomery form
  return from_limbs64(x, s);
}

void BigInt::to_limbs64(std::uint64_t* out, std::size_t count) const {
  if (limbs_.size() > 2 * count) {
    throw std::length_error("BigInt::to_limbs64: value too wide");
  }
  std::fill(out, out + count, std::uint64_t{0});
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs_[i]) << (32 * (i % 2));
  }
}

BigInt BigInt::from_limbs64(const std::uint64_t* limbs, std::size_t count) {
  BigInt out;
  out.limbs_.resize(2 * count);
  for (std::size_t i = 0; i < count; ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(limbs[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(limbs[i] >> 32);
  }
  out.normalize();
  return out;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = b;
    b = r;
  }
  return a;
}

BigInt BigInt::modinv(const BigInt& m) const {
  // Extended Euclid tracking only the coefficient of *this, with signs
  // handled by keeping (value, negative?) pairs.
  BigInt r0 = m, r1 = *this % m;
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    const auto dm = r0.divmod(r1);
    // t2 = t0 - q*t1 (signed)
    const BigInt qt1 = dm.quotient * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = r1;
    r1 = dm.remainder;
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
  }
  if (r0 != BigInt(1)) return BigInt();  // not invertible
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

BigInt BigInt::random_below(const BigInt& bound, RandomSource& rng) {
  if (bound.is_zero()) throw std::domain_error("random_below: zero bound");
  const std::size_t bytes = (bound.bit_length() + 7) / 8;
  while (true) {
    Bytes buf = rng.bytes(bytes);
    // Mask the top byte to the bound's width to cut the rejection rate.
    const std::size_t top_bits = bound.bit_length() % 8;
    if (top_bits != 0) {
      buf[0] &= static_cast<std::uint8_t>((1u << top_bits) - 1);
    }
    BigInt candidate = from_bytes_be(buf);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_with_bits(std::size_t bits, RandomSource& rng) {
  if (bits == 0) return BigInt();
  const std::size_t bytes = (bits + 7) / 8;
  Bytes buf = rng.bytes(bytes);
  const std::size_t top_bit = (bits - 1) % 8;
  buf[0] &= static_cast<std::uint8_t>((1u << (top_bit + 1)) - 1);
  buf[0] |= static_cast<std::uint8_t>(1u << top_bit);
  return from_bytes_be(buf);
}

}  // namespace pprox::crypto
