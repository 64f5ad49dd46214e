// RSA with PKCS#1 v1.5 and OAEP (SHA-256) encryption padding. The paper's
// proxy uses RSA for the client→layer asymmetric channel (enc(u, pkUA),
// enc(i, pkIA), enc(k_u, pkIA)); decryption uses CRT for speed.
#pragma once

#include <cstddef>

#include "common/bytes.hpp"
#include "common/rand.hpp"
#include "common/result.hpp"
#include "crypto/bigint.hpp"
#include "crypto/mont.hpp"

namespace pprox::crypto {

/// RSA public key (n, e). Copyable; distributing it is the point.
struct RsaPublicKey {
  BigInt n;
  BigInt e;

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// SHA-256 fingerprint of the encoded key, for attestation binding.
  Bytes fingerprint() const;
};

/// Montgomery constants for the CRT private op, derived from a key's p, q,
/// d_p, d_q and q_inv by rsa_precompute. Both primes share one limb width
/// so that a ciphertext below n is below p·R and q·R. Read-only once built:
/// the proxy's fan-out threads decrypt under one key concurrently.
struct RsaCrtParams {
  bool ready = false;
  MontModulus p, q;
  MontLimbs d_p{}, d_q{}, q_inv{};
};

/// RSA private key with CRT components.
struct RsaPrivateKey {
  BigInt n;
  BigInt e;
  BigInt d;
  BigInt p;
  BigInt q;
  BigInt d_p;    // d mod (p-1)
  BigInt d_q;    // d mod (q-1)
  BigInt q_inv;  // q^-1 mod p
  RsaCrtParams crt;  // filled by rsa_precompute

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  RsaPublicKey public_key() const { return {n, e}; }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generates a fresh key pair with a modulus of `bits` bits (e = 65537).
/// Tests use 1024 for speed; deployments should use >= 2048.
RsaKeyPair rsa_generate(std::size_t bits, RandomSource& rng);

/// Builds key.crt from the key's CRT components. rsa_generate and
/// LayerSecrets::deserialize call it; a key assembled any other way must
/// too, or each private op rebuilds the constants on its own stack. Throws
/// std::domain_error for components the kernel cannot use (an even or unit
/// prime, a prime wider than 4096 bits, a CRT exponent wider than its
/// prime) and std::length_error for a q_inv wider than the primes.
void rsa_precompute(RsaPrivateKey& key);

/// Raw RSA operations (textbook; exposed for tests and signatures).
/// rsa_private_op reduces a ciphertext at or above n first; the CRT op
/// itself is one Montgomery kernel run per prime, constant-time in the
/// ciphertext and the private exponents (DESIGN.md §13.4).
BigInt rsa_public_op(const RsaPublicKey& key, const BigInt& m);
BigInt rsa_private_op(const RsaPrivateKey& key, const BigInt& c);

/// PKCS#1 v1.5 type-2 encryption. Plaintext must fit: len <= k - 11.
Result<Bytes> rsa_encrypt_pkcs1(const RsaPublicKey& key, ByteView plaintext,
                                RandomSource& rng);
Result<Bytes> rsa_decrypt_pkcs1(const RsaPrivateKey& key, ByteView ciphertext);

/// RSAES-OAEP with SHA-256 and an empty label. len <= k - 2*32 - 2.
Result<Bytes> rsa_encrypt_oaep(const RsaPublicKey& key, ByteView plaintext,
                               RandomSource& rng);
Result<Bytes> rsa_decrypt_oaep(const RsaPrivateKey& key, ByteView ciphertext);

/// RSASSA with SHA-256 (PKCS#1 v1.5 DigestInfo). Used by the simulated
/// attestation authority to sign enclave quotes.
Bytes rsa_sign_sha256(const RsaPrivateKey& key, ByteView message);
bool rsa_verify_sha256(const RsaPublicKey& key, ByteView message,
                       ByteView signature);

/// MGF1-SHA256 mask generation (RFC 8017 B.2.1); exposed for tests.
Bytes mgf1_sha256(ByteView seed, std::size_t length);

/// Constant-time padding removal over a decrypted message block `em`
/// (exactly modulus_bytes long), exposed for tests and the dudect harness
/// (tools/pprox_ct_bench) so timing can be measured without modexp noise.
/// The separator scan and every validity check are branch-free; only the
/// single aggregated accept/reject bit is revealed (ct_reveal), which is
/// what the Result-returning API exposes to the caller anyway.
Result<Bytes> rsa_unpad_pkcs1(ByteView em);
/// OAEP counterpart: unmasks seed/DB with MGF1, then checks lHash and scans
/// for the 0x01 separator branch-free. Same reveal contract as above.
Result<Bytes> rsa_unpad_oaep(ByteView em);

}  // namespace pprox::crypto
