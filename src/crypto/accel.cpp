// PPROX-LAYER: shared
//
// Backend registry for the crypto dispatch layer. Portable fallbacks live
// in aes.cpp / gcm.cpp (declared in their detail namespaces); the hardware
// kernels live in accel_x86.cpp. No intrinsics here.
#include "crypto/accel.hpp"

#include <cstdlib>

#include "crypto/aes.hpp"
#include "crypto/cpu_features.hpp"
#include "crypto/gcm.hpp"

namespace pprox::crypto::accel {
namespace {

void portable_encrypt_blocks(const std::uint8_t* rk, int rounds,
                             const std::uint8_t* in, std::uint8_t* out,
                             std::size_t nblocks) {
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (out + 16 * b != in + 16 * b) {
      for (int i = 0; i < 16; ++i) out[16 * b + i] = in[16 * b + i];
    }
    detail::aes_encrypt_block_portable(rk, rounds, out + 16 * b);
  }
}

void portable_decrypt_blocks(const std::uint8_t* rk, int rounds,
                             const std::uint8_t* in, std::uint8_t* out,
                             std::size_t nblocks) {
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (out + 16 * b != in + 16 * b) {
      for (int i = 0; i < 16; ++i) out[16 * b + i] = in[16 * b + i];
    }
    detail::aes_decrypt_block_portable(rk, rounds, out + 16 * b);
  }
}

constexpr AesOps kPortableAes = {
    "aes-portable",
    /*constant_time=*/false,  // table S-box (see the caveat in aes.cpp)
    portable_encrypt_blocks,
    portable_decrypt_blocks,
};

constexpr GhashOps kPortableGhash = {
    "ghash-portable",
    /*constant_time=*/true,  // branch-free bitwise multiply
    gf128_mul_portable,
};

// The live dispatch. Plain pointers by design: selection happens once at
// startup (kAuto resolution inside a function-local static) or explicitly
// from single-threaded test/bench setup; see the header contract.
struct Dispatch {
  const AesOps* aes = &kPortableAes;
  const GhashOps* ghash = &kPortableGhash;
  Backend active = Backend::kPortable;
};

void resolve(Dispatch& d, Backend backend) {
  const bool accelerate =
      backend == Backend::kAccelerated ||
      (backend == Backend::kAuto && !disabled_by_env());
#if defined(PPROX_HAVE_X86_ACCEL)
  if (accelerate && available()) {
    d.aes = &x86_aes_ops();
    d.ghash = &x86_ghash_ops();
    d.active = Backend::kAccelerated;
    return;
  }
#endif
  (void)accelerate;
  d.aes = &kPortableAes;
  d.ghash = &kPortableGhash;
  d.active = Backend::kPortable;
}

Dispatch& dispatch() {
  static Dispatch d = [] {
    Dispatch init;
    resolve(init, Backend::kAuto);
    return init;
  }();
  return d;
}

}  // namespace

bool available() {
#if defined(PPROX_HAVE_X86_ACCEL)
  const CpuFeatures& f = cpu_features();
  return f.aesni && f.pclmul && f.ssse3;
#else
  return false;
#endif
}

bool disabled_by_env() {
  const char* v = std::getenv("PPROX_DISABLE_ACCEL");
  if (v == nullptr) return false;
  return v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool select_backend(Backend backend) {
  if (backend == Backend::kAccelerated && !available()) return false;
  resolve(dispatch(), backend);
  return true;
}

Backend active_backend() { return dispatch().active; }

bool montgomery_active() { return true; }

const AesOps& aes_ops() { return *dispatch().aes; }

const GhashOps& ghash_ops() { return *dispatch().ghash; }

}  // namespace pprox::crypto::accel
