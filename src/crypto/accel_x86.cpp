// PPROX-LAYER: shared
//
// x86 hardware kernels for the crypto dispatch layer: AES-NI round-function
// pipelines and a CLMUL-based GF(2^128) multiply for GHASH. This is the
// only translation unit (besides the CPUID probe) allowed to include
// intrinsics headers — pprox_lint's `intrinsics` rule enforces containment,
// and the CMake arch gate keeps non-x86 builds from ever seeing this file.
//
// Correctness contract: every kernel is bit-identical to the portable
// reference (tests/test_accel.cpp runs the differential suite across both
// backends). Constant-time status: AESENC/AESDEC and PCLMULQDQ have
// data-independent latency on every microarchitecture that implements them,
// so unlike the table-based reference these paths are free of secret-
// indexed memory accesses (DESIGN.md §10).
//
// Dispatch guarantees these functions only execute when CPUID reports
// AES-NI + PCLMULQDQ + SSSE3; the file is compiled with -maes -mpclmul
// -mssse3 (per-source flags, not global, so the rest of the library stays
// runnable on any x86-64).
#if defined(__x86_64__) || defined(__i386__)

#include <cstddef>
#include <cstdint>

#include <immintrin.h>  // pprox-lint: allow(intrinsics): this TU is the hardware-kernel container
#include <wmmintrin.h>  // pprox-lint: allow(intrinsics): this TU is the hardware-kernel container

#include "crypto/accel.hpp"

namespace pprox::crypto::accel {
namespace {

// ---------------------------------------------------------------------------
// AES-NI. The standard FIPS 197 round-key schedule from aes.cpp loads
// directly: AESENC expects exactly those keys for rounds 1..N-1 and
// AESENCLAST for the final round.
// ---------------------------------------------------------------------------

constexpr int kMaxRounds = 14;  // AES-256

inline void load_keys(const std::uint8_t* rk, int rounds, __m128i keys[15]) {
  for (int i = 0; i <= rounds; ++i) {
    keys[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(rk + 16 * static_cast<std::size_t>(i)));
  }
}

/// Encrypts W independent blocks in flight. The W-wide interleave hides the
/// AESENC latency (4-7 cycles) behind its throughput (1-2/cycle): with 8
/// blocks in the pipeline every port stays busy.
template <int W>
inline void enc_lane(const __m128i keys[15], int rounds, const std::uint8_t* in,
                     std::uint8_t* out) {
  __m128i b[W];
  for (int i = 0; i < W; ++i) {
    b[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * i));
    b[i] = _mm_xor_si128(b[i], keys[0]);
  }
  for (int r = 1; r < rounds; ++r) {
    for (int i = 0; i < W; ++i) b[i] = _mm_aesenc_si128(b[i], keys[r]);
  }
  for (int i = 0; i < W; ++i) {
    b[i] = _mm_aesenclast_si128(b[i], keys[rounds]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * i), b[i]);
  }
}

template <int W>
inline void dec_lane(const __m128i dkeys[15], int rounds, const std::uint8_t* in,
                     std::uint8_t* out) {
  __m128i b[W];
  for (int i = 0; i < W; ++i) {
    b[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * i));
    b[i] = _mm_xor_si128(b[i], dkeys[0]);
  }
  for (int r = 1; r < rounds; ++r) {
    for (int i = 0; i < W; ++i) b[i] = _mm_aesdec_si128(b[i], dkeys[r]);
  }
  for (int i = 0; i < W; ++i) {
    b[i] = _mm_aesdeclast_si128(b[i], dkeys[rounds]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * i), b[i]);
  }
}

void aesni_encrypt_blocks(const std::uint8_t* rk, int rounds,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t nblocks) {
  __m128i keys[kMaxRounds + 1];
  load_keys(rk, rounds, keys);
  while (nblocks >= 8) {
    enc_lane<8>(keys, rounds, in, out);
    in += 128;
    out += 128;
    nblocks -= 8;
  }
  if (nblocks >= 4) {
    enc_lane<4>(keys, rounds, in, out);
    in += 64;
    out += 64;
    nblocks -= 4;
  }
  while (nblocks > 0) {
    enc_lane<1>(keys, rounds, in, out);
    in += 16;
    out += 16;
    --nblocks;
  }
}

void aesni_decrypt_blocks(const std::uint8_t* rk, int rounds,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t nblocks) {
  // AESDEC implements the equivalent inverse cipher: middle round keys must
  // pass through InvMixColumns (AESIMC), and the schedule reverses. Each
  // round key is read straight from the encryption schedule.
  const auto round_key = [rk](int r) {
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(rk + 16 * static_cast<std::size_t>(r)));
  };
  __m128i dkeys[kMaxRounds + 1];
  dkeys[0] = round_key(rounds);
  for (int r = 1; r < rounds; ++r) {
    dkeys[r] = _mm_aesimc_si128(round_key(rounds - r));
  }
  dkeys[rounds] = round_key(0);
  while (nblocks >= 8) {
    dec_lane<8>(dkeys, rounds, in, out);
    in += 128;
    out += 128;
    nblocks -= 8;
  }
  if (nblocks >= 4) {
    dec_lane<4>(dkeys, rounds, in, out);
    in += 64;
    out += 64;
    nblocks -= 4;
  }
  while (nblocks > 0) {
    dec_lane<1>(dkeys, rounds, in, out);
    in += 16;
    out += 16;
    --nblocks;
  }
}

// ---------------------------------------------------------------------------
// CLMUL GHASH. GCM treats blocks as bit-reflected polynomials over
// GF(2^128); loading through a byte swap gives registers whose integer bit
// m holds coefficient 127-m (a full 128-bit reversal). The carry-less
// product of two reversed operands is the reversed 255-bit product shifted
// down by one (rev(a) * rev(b) = rev255(a*b)), so shifting the 256-bit
// product left once yields rev256(a*b), and the whole reduction can then be
// done with mirrored shifts:
//
//   coefficient-order u << j  ==  reversed-register u >> j  (and vice versa)
//
// Reduction by p(x) = x^128 + x^7 + x^2 + x + 1 folds the high half twice:
//   r = d_lo ^ W ^ (V ^ V<<1 ^ V<<2 ^ V<<7)
//     W = d_hi ^ d_hi<<1 ^ d_hi<<2 ^ d_hi<<7   (truncated to 128 bits)
//     V = d_hi>>127 ^ d_hi>>126 ^ d_hi>>121    (the <=7 overflow bits)
// with every shift mirrored in the reversed registers below. Verified
// bit-identical against the portable bitwise multiply by test_accel.
// ---------------------------------------------------------------------------

inline __m128i byte_swap(__m128i v) {
  const __m128i rev =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_shuffle_epi8(v, rev);
}

/// 128-bit logical right shift by s (1 <= s <= 63) across both lanes.
template <int S>
inline __m128i shr128(__m128i v) {
  return _mm_or_si128(_mm_srli_epi64(v, S),
                      _mm_slli_epi64(_mm_srli_si128(v, 8), 64 - S));
}

/// 128-bit logical left shift by s (64 <= s <= 127).
template <int S>
inline __m128i shl128_wide(__m128i v) {
  return _mm_slli_epi64(_mm_slli_si128(v, 8), S - 64);
}

void clmul_gf128_mul(std::uint8_t x[16], const std::uint8_t h[16]) {
  const __m128i a =
      byte_swap(_mm_loadu_si128(reinterpret_cast<const __m128i*>(x)));
  const __m128i b =
      byte_swap(_mm_loadu_si128(reinterpret_cast<const __m128i*>(h)));

  // Schoolbook 128x128 carry-less multiply -> 255-bit product [hi:lo].
  const __m128i t0 = _mm_clmulepi64_si128(a, b, 0x00);
  const __m128i t1 = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                   _mm_clmulepi64_si128(a, b, 0x01));
  const __m128i t2 = _mm_clmulepi64_si128(a, b, 0x11);
  __m128i lo = _mm_xor_si128(t0, _mm_slli_si128(t1, 8));
  __m128i hi = _mm_xor_si128(t2, _mm_srli_si128(t1, 8));

  // Shift [hi:lo] left by one bit: the reflection compensation.
  const __m128i lo_carry = _mm_srli_epi64(lo, 63);
  const __m128i hi_carry = _mm_srli_epi64(hi, 63);
  lo = _mm_or_si128(_mm_slli_epi64(lo, 1), _mm_slli_si128(lo_carry, 8));
  hi = _mm_or_si128(
      _mm_or_si128(_mm_slli_epi64(hi, 1), _mm_slli_si128(hi_carry, 8)),
      _mm_srli_si128(lo_carry, 8));

  // Now hi = rev128(product coeffs 0..127), lo = rev128(coeffs 128..255).
  // Fold the high coefficients (lo register) into the result with the
  // mirrored shifts described above.
  const __m128i w = _mm_xor_si128(
      _mm_xor_si128(lo, shr128<1>(lo)),
      _mm_xor_si128(shr128<2>(lo), shr128<7>(lo)));
  const __m128i v = _mm_xor_si128(
      _mm_xor_si128(shl128_wide<127>(lo), shl128_wide<126>(lo)),
      shl128_wide<121>(lo));
  const __m128i v_fold = _mm_xor_si128(_mm_xor_si128(v, shr128<1>(v)),
                                       _mm_xor_si128(shr128<2>(v), shr128<7>(v)));
  const __m128i r = _mm_xor_si128(hi, _mm_xor_si128(w, v_fold));

  _mm_storeu_si128(reinterpret_cast<__m128i*>(x), byte_swap(r));
}

constexpr AesOps kX86Aes = {
    "aes-ni",
    /*constant_time=*/true,
    aesni_encrypt_blocks,
    aesni_decrypt_blocks,
};

constexpr GhashOps kX86Ghash = {
    "ghash-clmul",
    /*constant_time=*/true,
    clmul_gf128_mul,
};

}  // namespace

const AesOps& x86_aes_ops() { return kX86Aes; }

const GhashOps& x86_ghash_ops() { return kX86Ghash; }

}  // namespace pprox::crypto::accel

#endif  // x86
