#include "crypto/ctr.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pprox::crypto {
namespace {

// Keystream is produced kCtrBatch blocks at a time so the dispatch layer's
// encrypt_blocks can keep a full AES-NI pipeline in flight (8 blocks hide
// the AESENC latency); the portable backend just loops. Counter blocks are
// materialized with 64-bit big-endian arithmetic — no per-block memcpy.
constexpr std::size_t kCtrBatch = 8;

inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

}  // namespace

void ctr_crypt_inplace(const Aes& cipher, const std::array<std::uint8_t, 16>& iv,
                       MutByteView data) {
  // The counter is a 128-bit big-endian integer: hi:lo with carry from lo.
  std::uint64_t hi = load_be64(iv.data());
  std::uint64_t lo = load_be64(iv.data() + 8);
  std::uint8_t counters[16 * kCtrBatch];
  std::uint8_t keystream[16 * kCtrBatch];
  for (std::size_t offset = 0; offset < data.size();
       offset += 16 * kCtrBatch) {
    const std::size_t remaining = data.size() - offset;
    const std::size_t nblocks =
        std::min<std::size_t>(kCtrBatch, (remaining + 15) / 16);
    for (std::size_t b = 0; b < nblocks; ++b) {
      store_be64(counters + 16 * b, hi);
      store_be64(counters + 16 * b + 8, lo);
      // PPROX-CT-OK(branch): carry on the 128-bit block counter — the
      // counter is IV + block index, public by CTR construction (the IV
      // ships with the ciphertext, or is the fixed zero IV for det mode).
      if (++lo == 0) ++hi;
    }
    cipher.encrypt_blocks(counters, keystream, nblocks);
    const std::size_t n = std::min<std::size_t>(16 * nblocks, remaining);
    for (std::size_t i = 0; i < n; ++i) data[offset + i] ^= keystream[i];
  }
  // Both buffers are key material: the keystream directly, the counter
  // blocks because keystream = E_k(counter) pairs enable known-plaintext
  // reconstruction of the pad positions.
  secure_wipe(MutByteView(counters, sizeof(counters)));
  secure_wipe(MutByteView(keystream, sizeof(keystream)));
}

Bytes ctr_crypt(const Aes& cipher, const std::array<std::uint8_t, 16>& iv,
                ByteView data) {
  Bytes out(data.begin(), data.end());
  ctr_crypt_inplace(cipher, iv, MutByteView(out.data(), out.size()));
  return out;
}

DeterministicCipher::DeterministicCipher(ByteView key) : aes_(key) {
  if (key.size() != 32) {
    throw std::invalid_argument("DeterministicCipher requires an AES-256 key");
  }
}

Bytes DeterministicCipher::encrypt(ByteView plaintext) const {
  static constexpr std::array<std::uint8_t, 16> kZeroIv{};
  return ctr_crypt(aes_, kZeroIv, plaintext);
}

Bytes DeterministicCipher::decrypt(ByteView ciphertext) const {
  return encrypt(ciphertext);  // CTR is an involution for a fixed IV.
}

void DeterministicCipher::keystream(MutByteView out) const {
  static constexpr std::array<std::uint8_t, 16> kZeroIv{};
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  ctr_crypt_inplace(aes_, kZeroIv, out);  // 0 XOR ks = ks
}

RandomIvCipher::RandomIvCipher(ByteView key) : aes_(key) {
  if (key.size() != 32) {
    throw std::invalid_argument("RandomIvCipher requires an AES-256 key");
  }
}

Bytes RandomIvCipher::encrypt(ByteView plaintext, RandomSource& rng) const {
  std::array<std::uint8_t, kIvSize> iv;
  rng.fill(MutByteView(iv.data(), iv.size()));
  // Sized once; the IV and the ciphertext are written in place.
  Bytes out(kIvSize + plaintext.size());
  std::copy(iv.begin(), iv.end(), out.begin());
  std::copy(plaintext.begin(), plaintext.end(),
            out.begin() + static_cast<std::ptrdiff_t>(kIvSize));
  ctr_crypt_inplace(aes_, iv,
                    MutByteView(out.data() + kIvSize, plaintext.size()));
  return out;
}

Result<Bytes> RandomIvCipher::decrypt(ByteView iv_and_ciphertext) const {
  if (iv_and_ciphertext.size() < 16) {
    return Error::crypto("ciphertext shorter than IV");
  }
  std::array<std::uint8_t, 16> iv;
  std::memcpy(iv.data(), iv_and_ciphertext.data(), 16);
  return ctr_crypt(aes_, iv, iv_and_ciphertext.subspan(16));
}

}  // namespace pprox::crypto
