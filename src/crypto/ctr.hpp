// AES-CTR mode plus the two wrappers PProx needs (paper §4.1, §5):
//  * DeterministicCipher — AES-256-CTR with a constant IV, so encrypting the
//    same identifier always yields the same ciphertext (pseudonymization).
//  * RandomIvCipher — AES-256-CTR with a fresh random IV prepended to the
//    ciphertext (response protection under the per-request key k_u).
#pragma once

#include <array>

#include "common/bytes.hpp"
#include "common/rand.hpp"
#include "common/result.hpp"
#include "crypto/aes.hpp"

namespace pprox::crypto {

/// Raw CTR keystream application: out = data XOR AES-CTR(key, iv).
/// Encrypt and decrypt are the same operation. Keystream generation is
/// batched through Aes::encrypt_blocks so the dispatch layer (accel.hpp)
/// can pipeline 8 blocks on AES-NI hardware.
Bytes ctr_crypt(const Aes& cipher, const std::array<std::uint8_t, 16>& iv,
                ByteView data);

/// In-place variant: XORs the keystream into `data` without the copy.
/// The batched kernel is the alloc-free, lock-free form the request path
/// should prefer (tests/test_alloc_budget.cpp pins both properties).
void ctr_crypt_inplace(const Aes& cipher,
                       const std::array<std::uint8_t, 16>& iv,
                       MutByteView data);

/// Deterministic symmetric encryption: AES-256-CTR with an all-zero IV.
/// Encrypting equal plaintexts yields equal ciphertexts, which lets the LRS
/// recognize two pseudonymized identifiers as the same entity. This trades
/// semantic security for linkable pseudonyms by design.
class DeterministicCipher {
 public:
  /// key must be 32 bytes (AES-256).
  explicit DeterministicCipher(ByteView key);

  Bytes encrypt(ByteView plaintext) const;
  Bytes decrypt(ByteView ciphertext) const;

  /// Writes the raw zero-IV keystream prefix into `out`. Because the IV is
  /// constant, the keystream is message-independent: XORing it into any
  /// plaintext of out.size() bytes is bit-for-bit equal to encrypt(). The
  /// batch entry points compute it once per layer key and reuse it across
  /// every identifier block in a flush.
  void keystream(MutByteView out) const;

 private:
  Aes aes_;
};

/// Randomized symmetric encryption: AES-256-CTR with a random 16-byte IV
/// prepended to the ciphertext.
class RandomIvCipher {
 public:
  explicit RandomIvCipher(ByteView key);

  /// Encrypts with a fresh IV drawn from `rng`; output = IV || ciphertext.
  Bytes encrypt(ByteView plaintext, RandomSource& rng) const;

  /// Splits the IV off and decrypts. Fails if input is shorter than an IV.
  Result<Bytes> decrypt(ByteView iv_and_ciphertext) const;

 private:
  Aes aes_;
};

}  // namespace pprox::crypto
