// Constant-time primitives for secret comparison and validation. Anything
// that inspects a key, MAC/GCM tag, pseudonym block, or OAEP padding must go
// through these helpers: a data-dependent early exit leaks a matching-prefix
// timing signal, which is exactly the class of side channel the PProx threat
// model (paper §3) assumes the proxy code does not add on top of SGX.
// tools/pprox_lint.cpp enforces call sites (its `memcmp` rule).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace pprox::crypto {

/// Constant-time equality over equal-length buffers. Lengths are public
/// (message framing is fixed-size by design), so a length mismatch may
/// return early; the content comparison never does.
inline bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  // The volatile accumulator stops the compiler from strength-reducing the
  // loop into an early-exit form.
  volatile std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = acc | static_cast<std::uint8_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

/// Constant-time "is every byte zero" — padding checks on decrypted
/// pseudonym blocks must not reveal where the first garbage byte sits.
inline bool ct_is_zero(ByteView a) {
  volatile std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc = acc | a[i];
  return acc == 0;
}

/// Branch-free select: returns `when_true` if choice is 1, `when_false` if
/// choice is 0. `choice` must be exactly 0 or 1.
inline std::uint8_t ct_select_u8(std::uint8_t choice, std::uint8_t when_true,
                                 std::uint8_t when_false) {
  const std::uint8_t mask = static_cast<std::uint8_t>(-choice);
  return static_cast<std::uint8_t>((when_true & mask) | (when_false & ~mask));
}

/// Expands the low bit of `bit` (0 or 1) into a full byte mask 0x00/0xFF
/// without branching — building block for constant-time table folds.
inline std::uint8_t ct_mask_u8(std::uint8_t bit) {
  return static_cast<std::uint8_t>(-(bit & 1));
}

/// 1 if a == b, else 0, without a data-dependent branch. The `x | -x` fold
/// moves "any bit set" into the sign position.
inline std::uint8_t ct_eq_u8(std::uint8_t a, std::uint8_t b) {
  const std::uint8_t x = static_cast<std::uint8_t>(a ^ b);
  const std::uint8_t any =
      static_cast<std::uint8_t>((x | static_cast<std::uint8_t>(-x)) >> 7);
  return static_cast<std::uint8_t>(any ^ 1);
}

/// 1 if a < b (unsigned), else 0, branch-free. Standard constant-time
/// unsigned comparison: the sign bit of the borrow expression survives the
/// fold for every operand pair, including the a == b and wraparound cases.
inline std::size_t ct_lt_size(std::size_t a, std::size_t b) {
  constexpr unsigned kShift = sizeof(std::size_t) * 8 - 1;
  return (a ^ ((a ^ b) | ((a - b) ^ b))) >> kShift;
}

/// 1 if a >= b (unsigned), else 0, branch-free.
inline std::size_t ct_ge_size(std::size_t a, std::size_t b) {
  return ct_lt_size(a, b) ^ 1;
}

/// Expands the low bit of `bit` (0 or 1) into a full-width size_t mask
/// 0 / ~0 without branching.
inline std::size_t ct_mask_size(std::size_t bit) {
  return static_cast<std::size_t>(0) - (bit & 1);
}

/// Branch-free select over size_t: `when_true` if choice is 1, `when_false`
/// if choice is 0. `choice` must be exactly 0 or 1.
inline std::size_t ct_select_size(std::size_t choice, std::size_t when_true,
                                  std::size_t when_false) {
  const std::size_t mask = ct_mask_size(choice);
  return (when_true & mask) | (when_false & ~mask);
}

/// Expands the low bit of `bit` (0 or 1) into a 64-bit mask 0 / ~0 without
/// branching — the limb-select building block of the Montgomery kernel.
inline std::uint64_t ct_mask_u64(std::uint64_t bit) {
  return std::uint64_t{0} - (bit & 1);
}

/// ~0 if a == b, else 0, without a data-dependent branch (the `x | -x`
/// fold moves "any bit set" into the top bit).
inline std::uint64_t ct_eq_mask_u64(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t x = a ^ b;
  return ct_mask_u64(((x | (std::uint64_t{0} - x)) >> 63) ^ 1);
}

/// Declassification point for an aggregated constant-time verdict: the one
/// place a secret-derived value may legitimately feed a branch, because by
/// construction it carries only the bit the caller's API reveals anyway
/// (accept/reject of a padding or tag check, never the position that made
/// it). pprox_lint --ct treats the result as untainted — route a value
/// through this ONLY after the position-dependent work is already folded
/// into it branch-free (DESIGN.md §13.2). The volatile round-trip keeps the
/// optimizer from hoisting the branch back across the fold.
template <typename T>
inline T ct_reveal(T v) {
  volatile T out = v;
  return out;
}

}  // namespace pprox::crypto
