#include "crypto/rsa.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/ct.hpp"
#include "crypto/prime.hpp"
#include "crypto/sha256.hpp"

namespace pprox::crypto {
namespace {

constexpr std::uint64_t kPublicExponent = 65537;

// DER prefix for a SHA-256 DigestInfo (RFC 8017 §9.2 note 1).
constexpr std::uint8_t kSha256DigestInfo[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

}  // namespace

Bytes RsaPublicKey::fingerprint() const {
  Bytes encoded = n.to_bytes_be();
  append(encoded, e.to_bytes_be());
  return Sha256::digest_bytes(encoded);
}

RsaKeyPair rsa_generate(std::size_t bits, RandomSource& rng) {
  const BigInt e(kPublicExponent);
  while (true) {
    const BigInt p = generate_prime(bits / 2, rng);
    BigInt q = generate_prime(bits - bits / 2, rng);
    if (p == q) continue;
    const BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    const BigInt p1 = p - BigInt(1);
    const BigInt q1 = q - BigInt(1);
    const BigInt phi = p1 * q1;
    if (BigInt::gcd(e, phi) != BigInt(1)) continue;
    const BigInt d = e.modinv(phi);
    if (d.is_zero()) continue;

    RsaPrivateKey priv;
    priv.n = n;
    priv.e = e;
    priv.d = d;
    // CRT wants p > q so q_inv = q^-1 mod p is directly usable.
    if (p >= q) {
      priv.p = p;
      priv.q = q;
    } else {
      priv.p = q;
      priv.q = p;
    }
    priv.d_p = d % (priv.p - BigInt(1));
    priv.d_q = d % (priv.q - BigInt(1));
    priv.q_inv = priv.q.modinv(priv.p);
    rsa_precompute(priv);
    return {priv.public_key(), priv};
  }
}

BigInt rsa_public_op(const RsaPublicKey& key, const BigInt& m) {
  return m.modexp(key.e, key.n);
}

namespace {

/// Limb width shared by both CRT primes.
std::size_t crt_limbs(const RsaPrivateKey& key) {
  return std::max(mont_limbs(key.p.bit_length()),
                  mont_limbs(key.q.bit_length()));
}

void build_crt(const RsaPrivateKey& key, RsaCrtParams& crt) {
  // The window walk covers the prime's bit length, so a wider exponent
  // would lose its top bits.
  if (key.d_p.bit_length() > key.p.bit_length() ||
      key.d_q.bit_length() > key.q.bit_length()) {
    throw std::domain_error("RSA: CRT exponent wider than its prime");
  }
  const std::size_t s = crt_limbs(key);
  mont_build(crt.p, key.p, s);
  mont_build(crt.q, key.q, s);
  key.d_p.to_limbs64(crt.d_p.data(), s);
  key.d_q.to_limbs64(crt.d_q.data(), s);
  key.q_inv.to_limbs64(crt.q_inv.data(), s);
  crt.ready = true;
}

/// c^d mod prime, in Montgomery form, for a 2s-limb c below prime·R.
void crt_half(std::uint64_t* out, const std::uint64_t* c,
              const MontModulus& prime, const MontLimbs& d,
              std::size_t prime_bits, std::size_t s) {
  mont_reduce_wide(out, c, prime, s);            // c·R^-1 mod prime
  mont_mul(out, out, prime.rrr.data(), prime, s);  // c·R mod prime
  // d < prime, so walking the prime's bit length covers every exponent bit
  // and the work is the same for every d.
  mont_exp(out, out, d.data(), prime_bits, prime, s);
}

BigInt crt_private_op(const RsaPrivateKey& key, const RsaCrtParams& crt,
                      const BigInt& c) {
  const std::size_t s = crt_limbs(key);
  std::uint64_t cw[2 * kMontMaxLimbs];
  // PPROX-CT-OK(branch): range check of the public ciphertext against the
  // public modulus n.
  if (c >= key.n) {
    // PPROX-CT-OK(varlat): reached only for c >= n, which every decrypt
    // path rejects first; the ciphertext and n are both public.
    (c % key.n).to_limbs64(cw, 2 * s);
  } else {
    c.to_limbs64(cw, 2 * s);
  }

  // c < n = p·q with p, q < R: the 2s-limb reduction is valid for both.
  std::uint64_t m1[kMontMaxLimbs], m2[kMontMaxLimbs], h[kMontMaxLimbs];
  crt_half(m1, cw, crt.p, crt.d_p, key.p.bit_length(), s);
  crt_half(m2, cw, crt.q, crt.d_q, key.q.bit_length(), s);
  std::uint64_t one[kMontMaxLimbs] = {};
  one[0] = 1;
  mont_mul(m2, m2, one, crt.q, s);  // m2 = c^d_q mod q

  // h = q_inv·(m1 - m2) mod p. m1 is still in Montgomery form, so m2 goes
  // there too (m2 < q < R); the difference carries one factor R, which the
  // Montgomery multiply by q_inv removes. The subtract adds p back under a
  // mask when m1 < m2, so neither order branches.
  mont_mul(h, m2, crt.p.rr.data(), crt.p, s);
  mont_sub(h, m1, h, crt.p, s);
  mont_mul(h, h, crt.q_inv.data(), crt.p, s);

  // m = m2 + q·h < q + q·(p - 1) = n.
  std::uint64_t m[2 * kMontMaxLimbs];
  limbs_mul_add(m, crt.q.n.data(), h, m2, s);
  return BigInt::from_limbs64(m, 2 * s);
}

}  // namespace

void rsa_precompute(RsaPrivateKey& key) { build_crt(key, key.crt); }

BigInt rsa_private_op(const RsaPrivateKey& key, const BigInt& c) {
  // PPROX-CT-OK(branch): whether the key carries its precomputed constants
  // is how it was constructed, not key material.
  if (key.crt.ready) return crt_private_op(key, key.crt, c);
  RsaCrtParams local;
  build_crt(key, local);
  return crt_private_op(key, local, c);
}

Result<Bytes> rsa_encrypt_pkcs1(const RsaPublicKey& key, ByteView plaintext,
                                RandomSource& rng) {
  const std::size_t k = key.modulus_bytes();
  if (plaintext.size() + 11 > k) {
    return Error::crypto("PKCS1: plaintext too long for modulus");
  }
  // EM = 0x00 || 0x02 || PS(nonzero random) || 0x00 || M
  Bytes em(k, 0);
  em[1] = 0x02;
  const std::size_t ps_len = k - 3 - plaintext.size();
  for (std::size_t i = 0; i < ps_len; ++i) {
    std::uint8_t b = 0;
    while (b == 0) rng.fill(MutByteView(&b, 1));
    em[2 + i] = b;
  }
  em[2 + ps_len] = 0x00;
  if (!plaintext.empty()) {
    std::memcpy(em.data() + 3 + ps_len, plaintext.data(), plaintext.size());
  }

  const BigInt m = BigInt::from_bytes_be(em);
  return rsa_public_op(key, m).to_bytes_be(k);
}

Result<Bytes> rsa_unpad_pkcs1(ByteView em) {
  if (em.size() < 11) return Error::crypto("PKCS1: bad padding");
  // EM = 0x00 || 0x02 || PS(>= 8 nonzero bytes) || 0x00 || M. Fold every
  // structural check into one accumulator and find the first zero byte
  // without branching on byte values: a data-dependent early exit would
  // hand a Bleichenbacher oracle the separator position.
  std::uint8_t bad = em[0];
  bad = static_cast<std::uint8_t>(bad | (em[1] ^ 0x02));
  std::size_t sep = 0;
  std::size_t found = 0;
  for (std::size_t i = 2; i < em.size(); ++i) {
    const std::size_t is_zero = ct_eq_u8(em[i], 0x00);
    sep = ct_select_size(is_zero & (found ^ 1), i, sep);
    found |= is_zero;
  }
  bad = static_cast<std::uint8_t>(bad | (found ^ 1));
  // PS must be at least 8 bytes, so the separator sits at index >= 10.
  bad = static_cast<std::uint8_t>(bad | ct_lt_size(sep, 10));
  if (ct_reveal(bad) != 0) return Error::crypto("PKCS1: bad padding");
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep) + 1, em.end());
}

Result<Bytes> rsa_decrypt_pkcs1(const RsaPrivateKey& key, ByteView ciphertext) {
  const std::size_t k = key.modulus_bytes();
  if (ciphertext.size() != k) return Error::crypto("PKCS1: bad ciphertext size");
  const BigInt c = BigInt::from_bytes_be(ciphertext);
  if (c >= key.n) return Error::crypto("PKCS1: ciphertext out of range");
  const Bytes em = rsa_private_op(key, c).to_bytes_be(k);
  return rsa_unpad_pkcs1(em);
}

Bytes mgf1_sha256(ByteView seed, std::size_t length) {
  Bytes out;
  out.reserve(length + Sha256::kDigestSize);
  for (std::uint32_t counter = 0; out.size() < length; ++counter) {
    Sha256 h;
    h.update(seed);
    const std::uint8_t c[4] = {
        static_cast<std::uint8_t>(counter >> 24),
        static_cast<std::uint8_t>(counter >> 16),
        static_cast<std::uint8_t>(counter >> 8),
        static_cast<std::uint8_t>(counter)};
    h.update(ByteView(c, 4));
    const auto d = h.finish();
    out.insert(out.end(), d.begin(), d.end());
  }
  out.resize(length);
  return out;
}

Result<Bytes> rsa_encrypt_oaep(const RsaPublicKey& key, ByteView plaintext,
                               RandomSource& rng) {
  constexpr std::size_t h = Sha256::kDigestSize;
  const std::size_t k = key.modulus_bytes();
  if (plaintext.size() + 2 * h + 2 > k) {
    return Error::crypto("OAEP: plaintext too long for modulus");
  }
  // DB = lHash || PS(zeros) || 0x01 || M
  Bytes db(k - h - 1, 0);
  const auto l_hash = Sha256::digest(ByteView());
  std::memcpy(db.data(), l_hash.data(), h);
  db[db.size() - plaintext.size() - 1] = 0x01;
  if (!plaintext.empty()) {  // empty span has a null data() — UB for memcpy
    std::memcpy(db.data() + db.size() - plaintext.size(), plaintext.data(),
                plaintext.size());
  }

  Bytes seed(h);
  rng.fill(seed);
  const Bytes db_mask = mgf1_sha256(seed, db.size());
  xor_into(db, db_mask);
  const Bytes seed_mask = mgf1_sha256(db, h);
  xor_into(seed, seed_mask);

  Bytes em(k, 0);
  std::memcpy(em.data() + 1, seed.data(), h);
  std::memcpy(em.data() + 1 + h, db.data(), db.size());
  const BigInt m = BigInt::from_bytes_be(em);
  return rsa_public_op(key, m).to_bytes_be(k);
}

Result<Bytes> rsa_unpad_oaep(ByteView em) {
  constexpr std::size_t h = Sha256::kDigestSize;
  if (em.size() < 2 * h + 2) return Error::crypto("OAEP: bad ciphertext size");

  Bytes seed(em.begin() + 1, em.begin() + 1 + h);
  Bytes db(em.begin() + 1 + static_cast<std::ptrdiff_t>(h), em.end());
  const Bytes seed_mask = mgf1_sha256(db, h);
  xor_into(seed, seed_mask);
  const Bytes db_mask = mgf1_sha256(seed, db.size());
  xor_into(db, db_mask);

  const auto l_hash = Sha256::digest(ByteView());
  // Single aggregated validity flag: avoid early exits that would leak which
  // check failed (Manger-style oracle hardening). The separator scan is
  // branch-free too: DB = lHash || PS(zeros) || 0x01 || M, and any nonzero
  // non-0x01 byte inside PS must poison `bad` without revealing where.
  std::uint8_t bad = em[0];
  for (std::size_t i = 0; i < h; ++i) {
    bad = static_cast<std::uint8_t>(bad | (db[i] ^ l_hash[i]));
  }
  std::size_t sep = 0;
  std::size_t found = 0;
  for (std::size_t i = h; i < db.size(); ++i) {
    const std::size_t is_one = ct_eq_u8(db[i], 0x01);
    const std::size_t is_zero = ct_eq_u8(db[i], 0x00);
    sep = ct_select_size(is_one & (found ^ 1), i, sep);
    // Garbage before the separator: neither 0x00 (PS) nor the 0x01 marker.
    bad = static_cast<std::uint8_t>(
        bad | ((found ^ 1) & (is_one ^ 1) & (is_zero ^ 1)));
    found |= is_one;
  }
  bad = static_cast<std::uint8_t>(bad | (found ^ 1));
  if (ct_reveal(bad) != 0) return Error::crypto("OAEP: decryption error");
  return Bytes(db.begin() + static_cast<std::ptrdiff_t>(sep) + 1, db.end());
}

Result<Bytes> rsa_decrypt_oaep(const RsaPrivateKey& key, ByteView ciphertext) {
  constexpr std::size_t h = Sha256::kDigestSize;
  const std::size_t k = key.modulus_bytes();
  if (ciphertext.size() != k || k < 2 * h + 2) {
    return Error::crypto("OAEP: bad ciphertext size");
  }
  const BigInt c = BigInt::from_bytes_be(ciphertext);
  // PPROX-CT-OK(branch): range check of public wire ciphertext against the
  // public modulus n; no private-key material is involved.
  if (c >= key.n) return Error::crypto("OAEP: ciphertext out of range");
  const Bytes em = rsa_private_op(key, c).to_bytes_be(k);
  return rsa_unpad_oaep(em);
}

Bytes rsa_sign_sha256(const RsaPrivateKey& key, ByteView message) {
  const std::size_t k = key.modulus_bytes();
  const auto digest = Sha256::digest(message);
  // EM = 0x00 || 0x01 || 0xFF..FF || 0x00 || DigestInfo
  Bytes em(k, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  const std::size_t t_len = sizeof(kSha256DigestInfo) + digest.size();
  em[k - t_len - 1] = 0x00;
  std::memcpy(em.data() + k - t_len, kSha256DigestInfo, sizeof(kSha256DigestInfo));
  std::memcpy(em.data() + k - digest.size(), digest.data(), digest.size());
  const BigInt m = BigInt::from_bytes_be(em);
  return rsa_private_op(key, m).to_bytes_be(k);
}

bool rsa_verify_sha256(const RsaPublicKey& key, ByteView message,
                       ByteView signature) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;
  const BigInt s = BigInt::from_bytes_be(signature);
  if (s >= key.n) return false;
  const Bytes em = rsa_public_op(key, s).to_bytes_be(k);

  const auto digest = Sha256::digest(message);
  Bytes expected(k, 0xFF);
  expected[0] = 0x00;
  expected[1] = 0x01;
  const std::size_t t_len = sizeof(kSha256DigestInfo) + digest.size();
  if (k < t_len + 3) return false;
  expected[k - t_len - 1] = 0x00;
  std::memcpy(expected.data() + k - t_len, kSha256DigestInfo,
              sizeof(kSha256DigestInfo));
  std::memcpy(expected.data() + k - digest.size(), digest.data(), digest.size());
  return ct_equal(em, expected);
}

}  // namespace pprox::crypto
