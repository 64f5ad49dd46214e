#include "crypto/mont.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "crypto/ct.hpp"

namespace pprox::crypto {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr std::size_t kWindow = 4;
constexpr std::size_t kTableSize = std::size_t{1} << kWindow;

/// r = t - n when the (s+1)-limb value (top, t) is at least n, else t; the
/// value must be below 2n. Both outcomes run the same instructions: the
/// subtract is always computed and a mask picks the result.
void reduce_once(u64* r, const u64* t, u64 top, const u64* n, std::size_t s) {
  u64 d[kMontMaxLimbs];
  u64 borrow = 0;
  for (std::size_t j = 0; j < s; ++j) {
    const u128 diff = static_cast<u128>(t[j]) - n[j] - borrow;
    d[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  // (top, t) >= n iff the top limb is set or the subtract did not borrow.
  const u64 take_d = ct_mask_u64(top | (borrow ^ 1));
  for (std::size_t j = 0; j < s; ++j) {
    r[j] = (d[j] & take_d) | (t[j] & ~take_d);
  }
}

/// x = 2x mod n for x < n.
void mod_double(u64* x, const MontModulus& m, std::size_t s) {
  u64 t[kMontMaxLimbs] = {};
  u64 carry = 0;
  for (std::size_t j = 0; j < s; ++j) {
    t[j] = (x[j] << 1) | carry;
    carry = x[j] >> 63;
  }
  reduce_once(x, t, carry, m.n.data(), s);
}

/// r = t·R^-1 mod n for a 2s-limb t < n·R, reducing t in place: add q·n
/// one limb at a time so the low s limbs cancel, keep the high half.
void redc_in_place(u64* r, u64* t, const MontModulus& m, std::size_t s) {
  const u64* n = m.n.data();
  u64 top = 0;  // carry out of limb i+s, owed to limb i+s+1
  for (std::size_t i = 0; i < s; ++i) {
    const u64 q = t[i] * m.n0;
    u64 carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const u128 cur = static_cast<u128>(q) * n[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    const u128 cur = static_cast<u128>(t[i + s]) + carry + top;
    t[i + s] = static_cast<u64>(cur);
    top = static_cast<u64>(cur >> 64);
  }
  reduce_once(r, t + s, top, n, s);  // (t + q·n) / R < 2n for t < n·R
}

/// r = a·a·R^-1 mod n for a < n. Squaring computes each cross product
/// a[i]·a[j] once and doubles the sum, a quarter fewer multiplies than
/// mont_mul; the exponentiation spends four of every five products here.
void mont_sqr(u64* r, const u64* a, const MontModulus& m, std::size_t s) {
  u64 t[2 * kMontMaxLimbs];
  std::fill(t, t + 2 * s, u64{0});
  for (std::size_t i = 0; i + 1 < s; ++i) {
    const u64 ai = a[i];
    u64 carry = 0;
    for (std::size_t j = i + 1; j < s; ++j) {
      const u128 cur = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    t[i + s] = carry;  // limb i+s is untouched until this row
  }
  u64 shifted_out = 0;
  for (std::size_t k = 0; k < 2 * s; ++k) {
    const u64 v = t[k];
    t[k] = (v << 1) | shifted_out;
    shifted_out = v >> 63;
  }
  u64 carry = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 cur = static_cast<u128>(t[2 * i]) + static_cast<u64>(sq) + carry;
    t[2 * i] = static_cast<u64>(cur);
    cur = static_cast<u128>(t[2 * i + 1]) + static_cast<u64>(sq >> 64) +
          static_cast<u64>(cur >> 64);
    t[2 * i + 1] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  redc_in_place(r, t, m, s);
}

/// out = table[w], reading every entry and keeping one by mask.
void gather(u64* out, const u64* table, u64 w, std::size_t s) {
  std::fill(out, out + s, u64{0});
  for (std::size_t k = 0; k < kTableSize; ++k) {
    const u64 keep = ct_eq_mask_u64(k, w);
    const u64* entry = table + k * s;
    for (std::size_t j = 0; j < s; ++j) out[j] |= entry[j] & keep;
  }
}

}  // namespace

void mont_build(MontModulus& m, const BigInt& modulus, std::size_t s) {
  const std::size_t bits = modulus.bit_length();
  if (!modulus.is_odd() || bits < 2) {
    throw std::domain_error("Montgomery: modulus must be odd and above 1");
  }
  if (s > kMontMaxLimbs || mont_limbs(bits) > s) {
    throw std::domain_error("Montgomery: modulus does not fit the width");
  }
  m = MontModulus{};
  modulus.to_limbs64(m.n.data(), s);

  // -n^-1 mod 2^64 by Newton iteration: n·n == 1 (mod 8) for odd n, and
  // each step doubles the correct low bits (3, 6, 12, 24, 48, 96).
  u64 inv = m.n[0];
  for (int i = 0; i < 5; ++i) inv *= 2 - m.n[0] * inv;
  m.n0 = 0 - inv;

  // R mod n: double 2^(bits-1), which is below n, up to 2^(64s). One more
  // doubling gives 2R mod n, the Montgomery form of 2.
  u64 two[kMontMaxLimbs] = {};
  two[(bits - 1) / 64] = u64{1} << ((bits - 1) % 64);
  for (std::size_t i = bits - 1; i <= 64 * s; ++i) mod_double(two, m, s);

  // R^2 mod n is the Montgomery form of 2^(64s): square and multiply over
  // the bits of the public exponent 64s.
  const u64 e = 64 * s;
  u64 acc[kMontMaxLimbs];
  std::copy(two, two + s, acc);  // the leading one bit of e
  for (int b = std::bit_width(e) - 1; b-- > 0;) {
    mont_sqr(acc, acc, m, s);
    if ((e >> b) & 1) mont_mul(acc, acc, two, m, s);
  }
  std::copy(acc, acc + s, m.rr.begin());
  mont_mul(m.rrr.data(), m.rr.data(), m.rr.data(), m, s);
}

void mont_mul(u64* r, const u64* a, const u64* b, const MontModulus& m,
              std::size_t s) {
  // CIOS: interleave one row of a·b with one word of reduction, so the
  // accumulator never grows past s+2 limbs.
  const u64* n = m.n.data();
  u64 t[kMontMaxLimbs + 2];
  std::fill(t, t + s + 2, u64{0});
  for (std::size_t i = 0; i < s; ++i) {
    const u64 bi = b[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[s]) + carry;
    t[s] = static_cast<u64>(cur);
    t[s + 1] = static_cast<u64>(cur >> 64);

    // Add q·n with q chosen so the low limb cancels, then shift one limb.
    const u64 q = t[0] * m.n0;
    cur = static_cast<u128>(q) * n[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < s; ++j) {
      cur = static_cast<u128>(q) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cur = static_cast<u128>(t[s]) + carry;
    t[s - 1] = static_cast<u64>(cur);
    t[s] = t[s + 1] + static_cast<u64>(cur >> 64);
  }
  reduce_once(r, t, t[s], n, s);  // t < 2n
}

void mont_reduce_wide(u64* r, const u64* t, const MontModulus& m,
                      std::size_t s) {
  u64 scratch[2 * kMontMaxLimbs];
  std::copy(t, t + 2 * s, scratch);
  redc_in_place(r, scratch, m, s);
}

void mont_sub(u64* r, const u64* a, const u64* b, const MontModulus& m,
              std::size_t s) {
  u64 borrow = 0;
  for (std::size_t j = 0; j < s; ++j) {
    const u128 diff = static_cast<u128>(a[j]) - b[j] - borrow;
    r[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  // a < b wrapped below zero: add n back, under a mask rather than a branch.
  const u64 add_n = ct_mask_u64(borrow);
  u64 carry = 0;
  for (std::size_t j = 0; j < s; ++j) {
    const u128 sum = static_cast<u128>(r[j]) + (m.n[j] & add_n) + carry;
    r[j] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
}

void mont_exp(u64* r, const u64* x_m, const u64* e, std::size_t bits,
              const MontModulus& m, std::size_t s) {
  // table[w] = x^w·R mod n; table[0] = R mod n, the Montgomery one, so a
  // zero window multiplies by one at the same cost as any other window.
  u64 table[kTableSize * kMontMaxLimbs];
  u64 one[kMontMaxLimbs] = {};
  one[0] = 1;
  mont_mul(table, m.rr.data(), one, m, s);
  std::copy(x_m, x_m + s, table + s);
  for (std::size_t w = 2; w < kTableSize; ++w) {
    mont_mul(table + w * s, table + (w - 1) * s, x_m, m, s);
  }

  u64 acc[kMontMaxLimbs];
  u64 factor[kMontMaxLimbs];
  std::copy(table, table + s, acc);
  for (std::size_t k = (bits + kWindow - 1) / kWindow; k-- > 0;) {
    for (std::size_t i = 0; i < kWindow; ++i) mont_sqr(acc, acc, m, s);
    // 64 is a multiple of the window, so a window never spans two limbs.
    const std::size_t bit = k * kWindow;
    const u64 w = (e[bit / 64] >> (bit % 64)) & (kTableSize - 1);
    gather(factor, table, w, s);
    mont_mul(acc, acc, factor, m, s);
  }
  std::copy(acc, acc + s, r);
}

void limbs_mul_add(u64* out, const u64* a, const u64* b, const u64* c,
                   std::size_t s) {
  std::copy(c, c + s, out);
  std::fill(out + s, out + 2 * s, u64{0});
  for (std::size_t i = 0; i < s; ++i) {
    const u64 bi = b[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * bi + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + s] = carry;  // limb i+s is untouched until this row
  }
}

}  // namespace pprox::crypto
