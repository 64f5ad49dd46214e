// Fixed-width Montgomery arithmetic over 64-bit limbs: the one kernel under
// every modular exponentiation in the tree (BigInt::modexp and the RSA-CRT
// private op in rsa.cpp). Operands are little-endian limb arrays of a
// runtime width s (1 <= s <= kMontMaxLimbs, so moduli up to 4096 bits) held
// in fixed-size stack buffers: nothing below this header touches the heap.
//
// For a given width every routine does the same work whatever the limb
// values: no branch, early exit or table index depends on an operand. The
// exponentiation reads its window table through a mask-select over every
// entry. Widths, bit lengths and the loop counts derived from them are
// public (DESIGN.md §13.4).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/bigint.hpp"

namespace pprox::crypto {

/// Widest supported modulus, in 64-bit limbs (4096 bits).
inline constexpr std::size_t kMontMaxLimbs = 64;
using MontLimbs = std::array<std::uint64_t, kMontMaxLimbs>;

/// Number of 64-bit limbs that hold `bits` bits.
constexpr std::size_t mont_limbs(std::size_t bits) { return (bits + 63) / 64; }

/// An odd modulus n prepared for s-limb Montgomery arithmetic, R = 2^(64s).
/// Built once by mont_build and read-only afterwards, so any number of
/// threads may share one.
struct MontModulus {
  std::uint64_t n0 = 0;  ///< -n^-1 mod 2^64
  MontLimbs n{};         ///< n, zero-padded to s limbs
  MontLimbs rr{};        ///< R^2 mod n
  MontLimbs rrr{};       ///< R^3 mod n
};

/// Prepares `modulus` for width s. The modulus must be odd, greater than 1
/// and at most 64·s bits, and s at most kMontMaxLimbs; anything else throws
/// std::domain_error. R mod n comes from modular doublings and R^2 from
/// Montgomery squarings, with no division, so this may run on secret primes.
void mont_build(MontModulus& m, const BigInt& modulus, std::size_t s);

/// r = a·b·R^-1 mod n, fully reduced, for a·b < n·R (a, b < n; or a < R and
/// b < n, which is how a value enters Montgomery form against R^2). r may
/// alias a or b.
void mont_mul(std::uint64_t* r, const std::uint64_t* a, const std::uint64_t* b,
              const MontModulus& m, std::size_t s);

/// r = t·R^-1 mod n for a 2s-limb t < n·R.
void mont_reduce_wide(std::uint64_t* r, const std::uint64_t* t,
                      const MontModulus& m, std::size_t s);

/// r = (a - b) mod n for a, b < n, branch-free. r may alias a or b.
void mont_sub(std::uint64_t* r, const std::uint64_t* a, const std::uint64_t* b,
              const MontModulus& m, std::size_t s);

/// r = x^e in Montgomery form: x_m = x·R mod n, r = x^e·R mod n. Walks
/// exactly `bits` exponent bits in 4-bit windows (four squarings and one
/// multiply each), so the work depends on `bits` alone; e holds
/// mont_limbs(bits) limbs and no bit at or above `bits`. r may alias x_m.
void mont_exp(std::uint64_t* r, const std::uint64_t* x_m,
              const std::uint64_t* e, std::size_t bits, const MontModulus& m,
              std::size_t s);

/// out = a·b + c over s-limb operands; out has 2s limbs and must not alias
/// an input.
void limbs_mul_add(std::uint64_t* out, const std::uint64_t* a,
                   const std::uint64_t* b, const std::uint64_t* c,
                   std::size_t s);

}  // namespace pprox::crypto
