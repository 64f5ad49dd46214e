// Runtime-dispatched crypto acceleration layer (DESIGN.md §10).
//
// The portable reference implementations (table-based AES in aes.cpp, the
// bitwise GF(2^128) multiply in gcm.cpp) stay the semantic ground truth;
// this layer selects, once per process, hardware kernels that compute
// bit-identical results:
//
//   * AES-NI round-function kernels with a pipelined 8x/4x multi-block
//     `encrypt_blocks` (consumed by CTR mode and GCM's CTR core),
//   * CLMUL-based GHASH multiplication.
//
// Modular exponentiation is not on this switch: BigInt::modexp and the
// RSA-CRT private op always run the portable 64-bit Montgomery kernel
// (crypto/mont.hpp), which needs no CPU feature. PPROX_DISABLE_ACCEL and
// select_backend() therefore govern AES and GHASH only.
//
// Dispatch is decided by CPUID (cpu_features.hpp) at first use and can be
// overridden:
//   * environment: PPROX_DISABLE_ACCEL=1 forces the portable backend,
//   * tests/benches: select_backend() flips the process-wide backend so the
//     same binary can cross-validate and measure both paths.
//
// select_backend() is NOT thread-safe; call it from a single thread before
// spawning workers (tests and benches do exactly that). Product code never
// calls it — it inherits the kAuto resolution.
//
// Intrinsics are contained in accel_x86.cpp / cpu_features.cpp (enforced by
// pprox_lint's `intrinsics` rule); this header is portable.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pprox::crypto::accel {

enum class Backend {
  kAuto,         ///< accelerated when available and not disabled by env
  kPortable,     ///< force the reference implementations
  kAccelerated,  ///< force the hardware kernels (fails if unsupported)
};

/// AES block-function backend. `rk` is the standard FIPS 197 round-key
/// schedule produced by Aes's key expansion: 16*(rounds+1) bytes.
struct AesOps {
  const char* name;
  bool constant_time;  ///< no secret-indexed table loads / secret branches
  /// Encrypts `nblocks` independent 16-byte blocks. `in` and `out` may be
  /// the same pointer but must not partially overlap.
  void (*encrypt_blocks)(const std::uint8_t* rk, int rounds,
                         const std::uint8_t* in, std::uint8_t* out,
                         std::size_t nblocks);
  /// Decrypts `nblocks` independent 16-byte blocks (same aliasing rule).
  void (*decrypt_blocks)(const std::uint8_t* rk, int rounds,
                         const std::uint8_t* in, std::uint8_t* out,
                         std::size_t nblocks);
};

/// GHASH backend: x <- (x * h) in GF(2^128), GCM bit convention.
struct GhashOps {
  const char* name;
  bool constant_time;
  void (*gf128_mul)(std::uint8_t x[16], const std::uint8_t h[16]);
};

/// True when hardware kernels are compiled in AND the CPU reports the
/// required features (AES-NI + SSSE3 for AES, PCLMULQDQ for GHASH).
bool available();

/// True when the PPROX_DISABLE_ACCEL environment variable pins kAuto to the
/// portable backend (any value except "" and "0" counts as set).
bool disabled_by_env();

/// Re-dispatches every backend pointer. Returns false (and leaves the
/// dispatch unchanged) if kAccelerated was requested but unavailable.
/// kAccelerated deliberately ignores PPROX_DISABLE_ACCEL so differential
/// tests can exercise both paths in one process.
bool select_backend(Backend backend);

/// The backend the last (or initial) selection resolved to: kPortable or
/// kAccelerated, never kAuto.
Backend active_backend();

/// Always true: modexp runs the Montgomery kernel on every backend. Kept
/// for callers that report the crypto configuration.
bool montgomery_active();

const AesOps& aes_ops();
const GhashOps& ghash_ops();

#if defined(PPROX_HAVE_X86_ACCEL)
/// Implemented in accel_x86.cpp (the only TU with AES-NI/CLMUL intrinsics).
const AesOps& x86_aes_ops();
const GhashOps& x86_ghash_ops();
#endif

}  // namespace pprox::crypto::accel
