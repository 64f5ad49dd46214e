#include "crypto/gcm.hpp"

#include <cstring>

#include "crypto/accel.hpp"
#include "crypto/ct.hpp"

namespace pprox::crypto {
namespace {

// GCM's CTR core runs the low 32 bits of the counter block big-endian;
// keystream generation is batched kGcmBatch blocks per dispatch call so the
// AES-NI backend can pipeline (mirrors ctr.cpp's kCtrBatch).
constexpr std::size_t kGcmBatch = 8;

void put_u32_be(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

std::uint32_t get_u32_be(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | in[i];
  return v;
}

void put_u64_be(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

}  // namespace

void gf128_mul(std::uint8_t x[16], const std::uint8_t y[16]) {
  accel::ghash_ops().gf128_mul(x, y);
}

void gf128_mul_portable(std::uint8_t x[16], const std::uint8_t y[16]) {
  // Bitwise multiply in GF(2^128) with the GCM polynomial
  // x^128 + x^7 + x^2 + x + 1; "rightmost" bit convention per SP 800-38D.
  // Branch-free: both operands derive from the hash key H, so neither the
  // conditional XOR nor the reduction may branch on their bits.
  std::uint8_t z[16] = {};
  std::uint8_t v[16];
  std::memcpy(v, y, 16);
  for (int i = 0; i < 128; ++i) {
    const int byte = i / 8;
    const int bit = 7 - (i % 8);
    const std::uint8_t xbit_mask = ct_mask_u8((x[byte] >> bit) & 1);
    for (int j = 0; j < 16; ++j) z[j] ^= v[j] & xbit_mask;
    // v = v >> 1 (in the bit-reflected representation), with reduction.
    const std::uint8_t lsb_mask = ct_mask_u8(v[15] & 1);
    for (int j = 15; j > 0; --j) {
      v[j] = static_cast<std::uint8_t>((v[j] >> 1) | ((v[j - 1] & 1) << 7));
    }
    v[0] >>= 1;
    v[0] ^= 0xE1 & lsb_mask;  // reduction by the GCM polynomial
  }
  std::memcpy(x, z, 16);
  secure_wipe(MutByteView(v, 16));
}

AesGcm::AesGcm(ByteView key) : aes_(key) {
  std::uint8_t zero[16] = {};
  aes_.encrypt_block(zero);
  std::memcpy(h_.data(), zero, 16);
}

AesGcm::Block AesGcm::ghash(ByteView associated_data, ByteView ciphertext) const {
  Block y{};
  const auto absorb = [this, &y](ByteView data) {
    for (std::size_t offset = 0; offset < data.size(); offset += 16) {
      const std::size_t n = std::min<std::size_t>(16, data.size() - offset);
      for (std::size_t i = 0; i < n; ++i) y[i] ^= data[offset + i];
      gf128_mul(y.data(), h_.data());
    }
  };
  absorb(associated_data);
  absorb(ciphertext);
  // Length block: bit lengths of AAD and ciphertext.
  std::uint8_t lengths[16];
  put_u64_be(lengths, static_cast<std::uint64_t>(associated_data.size()) * 8);
  put_u64_be(lengths + 8, static_cast<std::uint64_t>(ciphertext.size()) * 8);
  for (int i = 0; i < 16; ++i) y[static_cast<std::size_t>(i)] ^= lengths[i];
  gf128_mul(y.data(), h_.data());
  return y;
}

void AesGcm::ctr32_crypt(const Block& j0, ByteView in, Bytes& out) const {
  // First keystream block uses counter j0+1 (j0 itself masks the tag).
  std::uint32_t ctr = get_u32_be(j0.data() + 12);
  std::uint8_t counters[16 * kGcmBatch];
  std::uint8_t keystream[16 * kGcmBatch];
  for (std::size_t b = 0; b < kGcmBatch; ++b) {
    std::memcpy(counters + 16 * b, j0.data(), 12);  // fixed nonce prefix
  }
  const std::size_t base = out.size();
  out.resize(base + in.size());
  for (std::size_t offset = 0; offset < in.size();
       offset += 16 * kGcmBatch) {
    const std::size_t remaining = in.size() - offset;
    const std::size_t nblocks =
        std::min<std::size_t>(kGcmBatch, (remaining + 15) / 16);
    for (std::size_t b = 0; b < nblocks; ++b) {
      put_u32_be(counters + 16 * b + 12, ++ctr);  // wraps mod 2^32 per spec
    }
    aes_.encrypt_blocks(counters, keystream, nblocks);
    const std::size_t n = std::min<std::size_t>(16 * nblocks, remaining);
    for (std::size_t i = 0; i < n; ++i) {
      out[base + offset + i] = in[offset + i] ^ keystream[i];
    }
  }
  secure_wipe(MutByteView(counters, sizeof(counters)));
  secure_wipe(MutByteView(keystream, sizeof(keystream)));
}

Bytes AesGcm::seal(const std::array<std::uint8_t, kNonceSize>& nonce,
                   ByteView plaintext, ByteView associated_data) const {
  // 96-bit nonce: J0 = nonce || 0x00000001.
  Block j0{};
  std::memcpy(j0.data(), nonce.data(), kNonceSize);
  j0[15] = 1;

  Bytes out;
  out.reserve(plaintext.size() + kTagSize);
  ctr32_crypt(j0, plaintext, out);

  Block s = ghash(associated_data, out);
  std::uint8_t tag[16];
  std::memcpy(tag, j0.data(), 16);
  aes_.encrypt_block(tag);  // E_K(J0)
  for (int i = 0; i < 16; ++i) tag[i] ^= s[static_cast<std::size_t>(i)];
  out.insert(out.end(), tag, tag + kTagSize);
  return out;
}

Result<Bytes> AesGcm::open(const std::array<std::uint8_t, kNonceSize>& nonce,
                           ByteView sealed, ByteView associated_data) const {
  if (sealed.size() < kTagSize) return Error::crypto("GCM: message too short");
  const ByteView ciphertext = sealed.first(sealed.size() - kTagSize);
  const ByteView tag = sealed.last(kTagSize);

  Block j0{};
  std::memcpy(j0.data(), nonce.data(), kNonceSize);
  j0[15] = 1;

  Block s = ghash(associated_data, ciphertext);
  std::uint8_t expected[16];
  std::memcpy(expected, j0.data(), 16);
  aes_.encrypt_block(expected);
  for (int i = 0; i < 16; ++i) expected[i] ^= s[static_cast<std::size_t>(i)];
  if (!ct_equal(ByteView(expected, kTagSize), tag)) {
    return Error::crypto("GCM: authentication failed");
  }

  Bytes plaintext;
  plaintext.reserve(ciphertext.size());
  ctr32_crypt(j0, ciphertext, plaintext);
  return plaintext;
}

Bytes AesGcm::seal_with_random_nonce(ByteView plaintext, RandomSource& rng,
                                     ByteView associated_data) const {
  std::array<std::uint8_t, kNonceSize> nonce;
  rng.fill(MutByteView(nonce.data(), nonce.size()));
  Bytes out(nonce.begin(), nonce.end());
  const Bytes sealed = seal(nonce, plaintext, associated_data);
  append(out, sealed);
  return out;
}

Result<Bytes> AesGcm::open_with_nonce(ByteView nonce_and_sealed,
                                      ByteView associated_data) const {
  if (nonce_and_sealed.size() < kNonceSize + kTagSize) {
    return Error::crypto("GCM: message too short");
  }
  std::array<std::uint8_t, kNonceSize> nonce;
  std::memcpy(nonce.data(), nonce_and_sealed.data(), kNonceSize);
  return open(nonce, nonce_and_sealed.subspan(kNonceSize), associated_data);
}

}  // namespace pprox::crypto
