// Differential and known-answer tests for the crypto dispatch layer
// (crypto/accel.hpp). Every accelerated kernel — AES-NI block encryption,
// pipelined CTR, CLMUL GHASH — is validated two ways:
//  1. NIST vectors under BOTH backends (the same vector suite the portable
//     path already passes must pass bit-identically on the hardware path);
//  2. randomized differential runs with a fixed Drbg seed, comparing the
//     accelerated output byte-for-byte against the portable reference.
// The whole binary is additionally registered twice in ctest: once as-is
// and once with PPROX_DISABLE_ACCEL=1 (see tests/CMakeLists.txt), so even
// the "auto" codepaths get exercised under both resolutions. Montgomery
// modexp is off the switch (it runs on every backend); its checks against
// the divmod oracle stay here so both registrations run them.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/accel.hpp"
#include "crypto/aes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ctr.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/rsa.hpp"
#include "oracle.hpp"

namespace pprox::crypto {
namespace {

Bytes from_hex_bytes(std::string_view hex) {
  const auto nib = [](char c) -> std::uint8_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
    return static_cast<std::uint8_t>(c - 'A' + 10);
  };
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((nib(hex[i]) << 4) | nib(hex[i + 1])));
  }
  return out;
}

/// Restores whatever backend resolution was active before each test, so a
/// test that pins kPortable/kAccelerated can't leak into its neighbours.
class AccelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = accel::active_backend(); }
  void TearDown() override { accel::select_backend(saved_); }

  /// Runs `fn` once per selectable backend (always portable; accelerated
  /// only if this CPU has it and returns true from select_backend).
  template <typename Fn>
  void for_each_backend(Fn&& fn) {
    ASSERT_TRUE(accel::select_backend(accel::Backend::kPortable));
    fn(accel::Backend::kPortable);
    if (accel::available()) {
      ASSERT_TRUE(accel::select_backend(accel::Backend::kAccelerated));
      fn(accel::Backend::kAccelerated);
    }
  }

 private:
  accel::Backend saved_ = accel::Backend::kAuto;
};

TEST_F(AccelTest, BackendSelectionContract) {
  ASSERT_TRUE(accel::select_backend(accel::Backend::kPortable));
  EXPECT_EQ(accel::active_backend(), accel::Backend::kPortable);
  EXPECT_STREQ(accel::aes_ops().name, "aes-portable");
  EXPECT_STREQ(accel::ghash_ops().name, "ghash-portable");
  // Montgomery modexp does not ride the backend switch.
  EXPECT_TRUE(accel::montgomery_active());

  if (accel::available()) {
    ASSERT_TRUE(accel::select_backend(accel::Backend::kAccelerated));
    EXPECT_EQ(accel::active_backend(), accel::Backend::kAccelerated);
    EXPECT_STREQ(accel::aes_ops().name, "aes-ni");
    EXPECT_STREQ(accel::ghash_ops().name, "ghash-clmul");
    EXPECT_TRUE(accel::montgomery_active());
  } else {
    EXPECT_FALSE(accel::select_backend(accel::Backend::kAccelerated));
  }

  // kAuto honours PPROX_DISABLE_ACCEL; with it set the resolved backend must
  // be portable even on capable hardware.
  ASSERT_TRUE(accel::select_backend(accel::Backend::kAuto));
  if (accel::disabled_by_env()) {
    EXPECT_EQ(accel::active_backend(), accel::Backend::kPortable);
    EXPECT_TRUE(accel::montgomery_active());
  } else if (accel::available()) {
    EXPECT_EQ(accel::active_backend(), accel::Backend::kAccelerated);
  }
}

// --- AES known answers under both backends --------------------------------

TEST_F(AccelTest, Fips197Aes256VectorBothBackends) {
  // FIPS-197 Appendix C.3.
  const Bytes key = from_hex_bytes(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = from_hex_bytes("00112233445566778899aabbccddeeff");
  const Bytes ct = from_hex_bytes("8ea2b7ca516745bfeafc49904b496089");
  for_each_backend([&](accel::Backend) {
    Aes aes(key);
    std::uint8_t block[16];
    std::memcpy(block, pt.data(), 16);
    aes.encrypt_block(block);
    EXPECT_EQ(0, std::memcmp(block, ct.data(), 16));
    aes.decrypt_block(block);
    EXPECT_EQ(0, std::memcmp(block, pt.data(), 16));
  });
}

TEST_F(AccelTest, Sp80038aCtrVectorBothBackends) {
  // NIST SP 800-38A F.5.5 (CTR-AES256.Encrypt), all four blocks.
  const Bytes key = from_hex_bytes(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const std::array<std::uint8_t, 16> iv = {0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5,
                                           0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb,
                                           0xfc, 0xfd, 0xfe, 0xff};
  const Bytes pt = from_hex_bytes(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Bytes ct = from_hex_bytes(
      "601ec313775789a5b7a7f504bbf3d228"
      "f443e3ca4d62b59aca84e990cacaf5c5"
      "2b0930daa23de94ce87017ba2d84988d"
      "dfc9c58db67aada613c2dd08457941a6");
  for_each_backend([&](accel::Backend) {
    Aes aes(key);
    EXPECT_EQ(ctr_crypt(aes, iv, pt), ct);
    EXPECT_EQ(ctr_crypt(aes, iv, ct), pt);
  });
}

TEST_F(AccelTest, GcmVectorBothBackends) {
  // NIST GCM test case 16 (AES-256, AAD, 60-byte plaintext).
  const Bytes key = from_hex_bytes(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  const Bytes nonce_bytes = from_hex_bytes("cafebabefacedbaddecaf888");
  const Bytes pt = from_hex_bytes(
      "d9313225f88406e5a55909c5aff5269a"
      "86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525"
      "b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex_bytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const Bytes ct = from_hex_bytes(
      "522dc1f099567d07f47f37a32a84427d"
      "643a8cdcbfe5c0c97598a2bd2555d1aa"
      "8cb08e48590dbb3da7b08b1056828838"
      "c5f61e6393ba7a0abcc9f662");
  const Bytes tag = from_hex_bytes("76fc6ece0f4e1768cddf8853bb2d551b");
  std::array<std::uint8_t, AesGcm::kNonceSize> nonce{};
  std::memcpy(nonce.data(), nonce_bytes.data(), nonce.size());

  for_each_backend([&](accel::Backend) {
    AesGcm gcm(key);
    const Bytes sealed = gcm.seal(nonce, pt, aad);
    ASSERT_EQ(sealed.size(), ct.size() + tag.size());
    EXPECT_EQ(0, std::memcmp(sealed.data(), ct.data(), ct.size()));
    EXPECT_EQ(0, std::memcmp(sealed.data() + ct.size(), tag.data(), tag.size()));
    const auto opened = gcm.open(nonce, sealed, aad);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value(), pt);
  });
}

// --- Randomized differential: accelerated vs portable ---------------------

TEST_F(AccelTest, CtrDifferentialAllSizes) {
  if (!accel::available()) GTEST_SKIP() << "no hardware acceleration";
  const Bytes seed(32, 0x5a);
  Drbg rng{ByteView(seed)};
  Bytes key(32);
  rng.fill(MutByteView(key));
  Aes aes(key);

  // Sizes 0..257 cover every batch-boundary case: empty, sub-block, exact
  // 8-block pipeline fills, and ragged tails past one and two full batches.
  for (std::size_t size = 0; size <= 257; ++size) {
    std::array<std::uint8_t, 16> iv{};
    rng.fill(MutByteView(iv.data(), iv.size()));
    Bytes data(size);
    rng.fill(MutByteView(data));

    ASSERT_TRUE(accel::select_backend(accel::Backend::kPortable));
    const Bytes portable = ctr_crypt(aes, iv, data);
    ASSERT_TRUE(accel::select_backend(accel::Backend::kAccelerated));
    const Bytes accelerated = ctr_crypt(aes, iv, data);
    ASSERT_EQ(portable, accelerated) << "CTR mismatch at size " << size;
  }
}

TEST_F(AccelTest, GcmDifferentialAllSizes) {
  if (!accel::available()) GTEST_SKIP() << "no hardware acceleration";
  const Bytes seed(32, 0xc3);
  Drbg rng{ByteView(seed)};
  Bytes key(32);
  rng.fill(MutByteView(key));

  for (std::size_t size = 0; size <= 257; size += 7) {
    std::array<std::uint8_t, AesGcm::kNonceSize> nonce{};
    rng.fill(MutByteView(nonce.data(), nonce.size()));
    Bytes data(size);
    rng.fill(MutByteView(data));
    Bytes aad(size % 33);
    rng.fill(MutByteView(aad));

    ASSERT_TRUE(accel::select_backend(accel::Backend::kPortable));
    AesGcm gcm_portable(key);
    const Bytes sealed_portable = gcm_portable.seal(nonce, data, aad);
    ASSERT_TRUE(accel::select_backend(accel::Backend::kAccelerated));
    AesGcm gcm_accel(key);
    const Bytes sealed_accel = gcm_accel.seal(nonce, data, aad);
    ASSERT_EQ(sealed_portable, sealed_accel) << "GCM mismatch at size " << size;

    // Cross-open: accelerated must open what portable sealed and vice versa.
    const auto cross = gcm_accel.open(nonce, sealed_portable, aad);
    ASSERT_TRUE(cross.ok());
    EXPECT_EQ(cross.value(), data);
  }
}

TEST_F(AccelTest, Gf128MulDifferential) {
  if (!accel::available()) GTEST_SKIP() << "no hardware acceleration";
  const Bytes seed(32, 0x11);
  Drbg rng{ByteView(seed)};
  ASSERT_TRUE(accel::select_backend(accel::Backend::kAccelerated));
  for (int iter = 0; iter < 2000; ++iter) {
    std::uint8_t x[16], y[16], ref[16];
    rng.fill(MutByteView(x, 16));
    rng.fill(MutByteView(y, 16));
    std::memcpy(ref, x, 16);
    gf128_mul_portable(ref, y);  // ground truth
    gf128_mul(x, y);             // dispatches to CLMUL
    ASSERT_EQ(0, std::memcmp(x, ref, 16)) << "gf128 mismatch, iter " << iter;
  }
  // Edge operands the random sweep is unlikely to hit.
  const std::uint8_t kEdges[][16] = {
      {},                                                    // zero
      {0x80},                                                // the element "1"
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01},  // x^127
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
       0xff, 0xff, 0xff, 0xff},
  };
  for (const auto& a : kEdges) {
    for (const auto& b : kEdges) {
      std::uint8_t x[16], ref[16];
      std::memcpy(x, a, 16);
      std::memcpy(ref, a, 16);
      gf128_mul_portable(ref, b);
      gf128_mul(x, b);
      ASSERT_EQ(0, std::memcmp(x, ref, 16));
    }
  }
}

TEST_F(AccelTest, EncryptBlocksMatchesRepeatedSingleBlocks) {
  if (!accel::available()) GTEST_SKIP() << "no hardware acceleration";
  const Bytes seed(32, 0x77);
  Drbg rng{ByteView(seed)};
  Bytes key(32);
  rng.fill(MutByteView(key));
  Aes aes(key);
  ASSERT_TRUE(accel::select_backend(accel::Backend::kAccelerated));

  for (std::size_t nblocks : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{16},
                              std::size_t{17}, std::size_t{31}}) {
    Bytes in(16 * nblocks);
    rng.fill(MutByteView(in));
    Bytes batched(in.size());
    aes.encrypt_blocks(in.data(), batched.data(), nblocks);
    Bytes single = in;
    for (std::size_t b = 0; b < nblocks; ++b) {
      aes.encrypt_block(single.data() + 16 * b);
    }
    EXPECT_EQ(batched, single) << "nblocks=" << nblocks;

    // Decrypt path (AESIMC-transformed schedule) must invert the batch,
    // in place.
    aes.decrypt_blocks(batched.data(), batched.data(), nblocks);
    EXPECT_EQ(batched, in) << "nblocks=" << nblocks;
  }
}

// --- Montgomery modexp ----------------------------------------------------

TEST_F(AccelTest, MontgomeryMatchesDivmodRandomOddModuli) {
  const Bytes seed(32, 0x42);
  Drbg rng{ByteView(seed)};
  for (std::size_t bits : {33u, 64u, 96u, 256u, 512u, 1024u}) {
    for (int iter = 0; iter < 8; ++iter) {
      BigInt n = BigInt::random_with_bits(bits, rng);
      if (!n.is_odd()) n = n + BigInt(1);
      const BigInt base = BigInt::random_below(n + n, rng);  // may exceed n
      const BigInt exp = BigInt::random_with_bits(bits / 2 + 1, rng);
      EXPECT_EQ(base.modexp(exp, n), oracle::modexp_divmod(base, exp, n))
          << "bits=" << bits << " iter=" << iter;
    }
  }
}

TEST_F(AccelTest, MontgomeryEdgeCases) {
  const BigInt one(1);
  const BigInt n = BigInt::from_hex("f123456789abcdef1");  // odd
  // Exponent zero -> 1 mod n.
  EXPECT_EQ(BigInt(12345).modexp(BigInt(), n), one);
  // Modulus one -> 0.
  EXPECT_TRUE(BigInt(7).modexp(BigInt(5), one).is_zero());
  // Zero base.
  EXPECT_TRUE(BigInt().modexp(BigInt(3), n).is_zero());
  // Base >= modulus reduces first.
  EXPECT_EQ((n + BigInt(2)).modexp(BigInt(10), n),
            BigInt(2).modexp(BigInt(10), n));
  // Even or zero modulus is a caller error on every backend; the even-
  // modulus answers live in the divmod oracle.
  for_each_backend([&](accel::Backend) {
    EXPECT_THROW(BigInt(3).modexp(BigInt(2), BigInt(10)), std::domain_error);
    EXPECT_THROW(BigInt(3).modexp(BigInt(2), BigInt()), std::domain_error);
  });
  EXPECT_EQ(oracle::modexp_divmod(BigInt(3), BigInt(4), BigInt(10)), BigInt(1));
}

TEST_F(AccelTest, RsaRoundTripsUnderBothBackends) {
  // Fixed 1024-bit fixture (generated once with this repo's rsa_generate,
  // then frozen) so the CRT path — including q^-1 mod p recombination — is
  // exercised deterministically under both backend resolutions.
  const Bytes seed(32, 0x99);
  Drbg rng{ByteView(seed)};
  const RsaKeyPair kp = rsa_generate(1024, rng);
  // p > q and p < q both occur across seeds; assert the fixture hits the
  // recombination branch at all (h = q_inv * (m_p - m_q) mod p).
  ASSERT_NE(kp.priv.p, kp.priv.q);

  const Bytes msg = from_hex_bytes("00ff102030405060708090a0b0c0d0e0f0");
  for_each_backend([&](accel::Backend backend) {
    Drbg enc_rng{ByteView(seed)};
    const auto ct = rsa_encrypt_oaep(kp.pub, msg, enc_rng);
    ASSERT_TRUE(ct.ok());
    const auto pt = rsa_decrypt_oaep(kp.priv, ct.value());
    ASSERT_TRUE(pt.ok()) << "backend " << static_cast<int>(backend);
    EXPECT_EQ(pt.value(), msg);

    const Bytes sig = rsa_sign_sha256(kp.priv, msg);
    EXPECT_TRUE(rsa_verify_sha256(kp.pub, msg, sig));
  });

  // Ciphertext sealed under one backend must decrypt under the other.
  if (accel::available()) {
    ASSERT_TRUE(accel::select_backend(accel::Backend::kPortable));
    Drbg enc_rng{ByteView(seed)};
    const auto ct = rsa_encrypt_oaep(kp.pub, msg, enc_rng);
    ASSERT_TRUE(ct.ok());
    ASSERT_TRUE(accel::select_backend(accel::Backend::kAccelerated));
    const auto pt = rsa_decrypt_oaep(kp.priv, ct.value());
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(pt.value(), msg);
  }
}

TEST_F(AccelTest, Rsa2048FixtureCrtEdgeCases) {
  // 2048-bit round trip; heavier, so a single deterministic key. Covers the
  // target size for the paper's proxy deployments.
  const Bytes seed(32, 0xab);
  Drbg rng{ByteView(seed)};
  const RsaKeyPair kp = rsa_generate(2048, rng);
  const Bytes msg = from_hex_bytes("deadbeefcafef00d");
  for_each_backend([&](accel::Backend) {
    Drbg enc_rng{ByteView(seed)};
    const auto ct = rsa_encrypt_pkcs1(kp.pub, msg, enc_rng);
    ASSERT_TRUE(ct.ok());
    const auto pt = rsa_decrypt_pkcs1(kp.priv, ct.value());
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(pt.value(), msg);
  });

  // CRT recombination edge: craft messages congruent to 0 mod p and 0 mod q
  // so m_p (resp. m_q) is zero during recombination.
  for (const BigInt& prime : {kp.priv.p, kp.priv.q}) {
    const BigInt m = prime;  // 0 mod that prime, nonzero mod the other
    const BigInt c = rsa_public_op(kp.pub, m);
    for_each_backend([&](accel::Backend) {
      EXPECT_EQ(rsa_private_op(kp.priv, c), m);
    });
  }
}

}  // namespace
}  // namespace pprox::crypto
