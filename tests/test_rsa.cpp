// RSA keygen, PKCS#1 v1.5, OAEP, and signature tests. Key generation is the
// slow part, so one 1024-bit pair is shared across the suite. The CRT
// private op (the Montgomery kernel of crypto/mont.hpp) is checked against
// the divmod oracle at several key sizes, on edge and random ciphertexts.
#include <gtest/gtest.h>

#include <vector>

#include "common/encoding.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "oracle.hpp"

namespace pprox::crypto {
namespace {

class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Drbg(to_bytes("rsa-test-seed"));
    keys_ = new RsaKeyPair(rsa_generate(1024, *rng_));
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
    keys_ = nullptr;
    rng_ = nullptr;
  }
  static Drbg* rng_;
  static RsaKeyPair* keys_;
};

Drbg* RsaTest::rng_ = nullptr;
RsaKeyPair* RsaTest::keys_ = nullptr;

TEST_F(RsaTest, KeyShape) {
  EXPECT_EQ(keys_->pub.n.bit_length(), 1024u);
  EXPECT_EQ(keys_->pub.e, BigInt(65537));
  EXPECT_EQ(keys_->priv.p * keys_->priv.q, keys_->pub.n);
  EXPECT_GE(keys_->priv.p, keys_->priv.q);  // CRT convention
  EXPECT_EQ(keys_->pub.modulus_bytes(), 128u);
}

TEST_F(RsaTest, RawOpsAreInverses) {
  const BigInt m = BigInt::from_hex("123456789abcdef");
  const BigInt c = rsa_public_op(keys_->pub, m);
  EXPECT_NE(c, m);
  EXPECT_EQ(rsa_private_op(keys_->priv, c), m);
}

TEST_F(RsaTest, CrtMatchesPlainModexp) {
  for (int i = 0; i < 5; ++i) {
    const BigInt c = BigInt::random_below(keys_->pub.n, *rng_);
    EXPECT_EQ(rsa_private_op(keys_->priv, c),
              c.modexp(keys_->priv.d, keys_->priv.n));
  }
}

TEST_F(RsaTest, Pkcs1RoundTrip) {
  const auto msg = to_bytes("user-8412");
  const auto ct = rsa_encrypt_pkcs1(keys_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct.value().size(), 128u);
  const auto back = rsa_decrypt_pkcs1(keys_->priv, ct.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), msg);
}

TEST_F(RsaTest, Pkcs1IsRandomized) {
  const auto msg = to_bytes("same-user");
  const auto a = rsa_encrypt_pkcs1(keys_->pub, msg, *rng_);
  const auto b = rsa_encrypt_pkcs1(keys_->pub, msg, *rng_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Randomized encryption: same plaintext, different ciphertexts — this is
  // exactly why det_enc is needed for pseudonyms (paper §4.1).
  EXPECT_NE(a.value(), b.value());
}

TEST_F(RsaTest, Pkcs1RejectsOversizedPlaintext) {
  const Bytes big(128 - 10, 0x41);
  EXPECT_FALSE(rsa_encrypt_pkcs1(keys_->pub, big, *rng_).ok());
}

TEST_F(RsaTest, Pkcs1MaxSizePlaintext) {
  const Bytes msg(128 - 11, 0x42);
  const auto ct = rsa_encrypt_pkcs1(keys_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  const auto back = rsa_decrypt_pkcs1(keys_->priv, ct.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), msg);
}

TEST_F(RsaTest, Pkcs1RejectsCorruptedCiphertext) {
  const auto ct = rsa_encrypt_pkcs1(keys_->pub, to_bytes("x"), *rng_);
  ASSERT_TRUE(ct.ok());
  Bytes bad = ct.value();
  bad.pop_back();
  EXPECT_FALSE(rsa_decrypt_pkcs1(keys_->priv, bad).ok());
}

TEST_F(RsaTest, OaepRoundTrip) {
  const auto msg = to_bytes("item-identifier-17141");
  const auto ct = rsa_encrypt_oaep(keys_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  const auto back = rsa_decrypt_oaep(keys_->priv, ct.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), msg);
}

TEST_F(RsaTest, OaepEmptyAndMaxPlaintext) {
  for (std::size_t len : {std::size_t{0}, std::size_t{128 - 2 * 32 - 2}}) {
    const Bytes msg(len, 0x5a);
    const auto ct = rsa_encrypt_oaep(keys_->pub, msg, *rng_);
    ASSERT_TRUE(ct.ok()) << len;
    const auto back = rsa_decrypt_oaep(keys_->priv, ct.value());
    ASSERT_TRUE(back.ok()) << len;
    EXPECT_EQ(back.value(), msg);
  }
  EXPECT_FALSE(rsa_encrypt_oaep(keys_->pub, Bytes(63, 0), *rng_).ok());
}

TEST_F(RsaTest, OaepTamperDetected) {
  const auto ct = rsa_encrypt_oaep(keys_->pub, to_bytes("payload"), *rng_);
  ASSERT_TRUE(ct.ok());
  Bytes bad = ct.value();
  bad[bad.size() / 2] ^= 0x40;
  EXPECT_FALSE(rsa_decrypt_oaep(keys_->priv, bad).ok());
}

TEST_F(RsaTest, OaepIsRandomized) {
  const auto a = rsa_encrypt_oaep(keys_->pub, to_bytes("m"), *rng_);
  const auto b = rsa_encrypt_oaep(keys_->pub, to_bytes("m"), *rng_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
}

TEST_F(RsaTest, SignVerify) {
  const auto msg = to_bytes("enclave quote: measurement || pk fingerprint");
  const Bytes sig = rsa_sign_sha256(keys_->priv, msg);
  EXPECT_TRUE(rsa_verify_sha256(keys_->pub, msg, sig));
  EXPECT_FALSE(rsa_verify_sha256(keys_->pub, to_bytes("other"), sig));
  Bytes bad = sig;
  bad[0] ^= 1;
  EXPECT_FALSE(rsa_verify_sha256(keys_->pub, msg, bad));
  EXPECT_FALSE(rsa_verify_sha256(keys_->pub, msg, Bytes(10, 0)));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  Drbg rng2(to_bytes("second-key"));
  const RsaKeyPair other = rsa_generate(1024, rng2);
  const auto msg = to_bytes("message");
  const Bytes sig = rsa_sign_sha256(keys_->priv, msg);
  EXPECT_FALSE(rsa_verify_sha256(other.pub, msg, sig));
}

TEST_F(RsaTest, FingerprintStableAndKeyDependent) {
  EXPECT_EQ(keys_->pub.fingerprint(), keys_->pub.fingerprint());
  Drbg rng2(to_bytes("third-key"));
  const RsaKeyPair other = rsa_generate(1024, rng2);
  EXPECT_NE(keys_->pub.fingerprint(), other.pub.fingerprint());
}

TEST_F(RsaTest, PublicPrivateRoundTrips) {
  for (int i = 0; i < 20000; ++i) {
    const BigInt m = BigInt::random_below(keys_->pub.n, *rng_);
    ASSERT_EQ(rsa_private_op(keys_->priv, rsa_public_op(keys_->pub, m)), m)
        << "i=" << i << " m=" << m.to_hex();
  }
}

TEST_F(RsaTest, KeyWithoutPrecomputationStillDecrypts) {
  // A key assembled field by field has no CRT constants; the private op
  // builds them on its own stack and gives the same answer.
  RsaPrivateKey bare = keys_->priv;
  bare.crt = RsaCrtParams{};
  const BigInt c = BigInt::random_below(keys_->pub.n, *rng_);
  EXPECT_EQ(rsa_private_op(bare, c), rsa_private_op(keys_->priv, c));
}

TEST_F(RsaTest, CiphertextAtOrAboveModulusIsReducedFirst) {
  const BigInt c = BigInt::random_below(keys_->pub.n, *rng_);
  EXPECT_EQ(rsa_private_op(keys_->priv, c + keys_->pub.n),
            rsa_private_op(keys_->priv, c));
  EXPECT_TRUE(rsa_private_op(keys_->priv, keys_->pub.n).is_zero());
}

TEST(RsaPrecompute, RejectsUnusablePrimes) {
  Drbg rng(to_bytes("rsa-precompute"));
  RsaPrivateKey key = rsa_generate(512, rng).priv;
  RsaPrivateKey even_p = key;
  even_p.p = key.p + BigInt(1);
  EXPECT_THROW(rsa_precompute(even_p), std::domain_error);
  RsaPrivateKey wide_d = key;
  wide_d.d_p = key.d;  // d is twice as wide as d mod (p-1)
  EXPECT_THROW(rsa_precompute(wide_d), std::domain_error);
}

/// Reference CRT over the divmod oracle: m1 = c^d_p mod p and
/// m2 = c^d_q mod q by square-and-multiply, recombined with plain BigInt
/// arithmetic. Reports whether m1 < m2, the recombination's wrap case.
BigInt crt_oracle(const RsaPrivateKey& key, const BigInt& c, bool& m1_below_m2) {
  const BigInt m1 = oracle::modexp_divmod(c, key.d_p, key.p);
  const BigInt m2 = oracle::modexp_divmod(c, key.d_q, key.q);
  m1_below_m2 = m1 < m2;
  const BigInt diff = (m1 + key.p - m2 % key.p) % key.p;
  return m2 + key.q * (key.q_inv * diff % key.p);
}

struct CrtCase {
  std::size_t bits;
  int random;        ///< random ciphertexts, each checked by re-encryption
  int oracle_every;  ///< every k-th of them also against the divmod oracle
};

class RsaPrivateOpOracle : public ::testing::TestWithParam<CrtCase> {};

TEST_P(RsaPrivateOpOracle, MatchesDivmodOracle) {
  const CrtCase param = GetParam();
  Drbg rng(to_bytes("rsa-oracle-" + std::to_string(param.bits)));
  const RsaPrivateKey key = rsa_generate(param.bits, rng).priv;
  ASSERT_EQ(key.n.bit_length(), param.bits);

  // Edge ciphertexts: the extremes, and multiples of one prime, whose
  // residue mod that prime is 0 (c = p·k stays below n for k < q).
  std::vector<BigInt> edges = {BigInt(), BigInt(1), BigInt(2),
                               key.n - BigInt(1), key.n - BigInt(2),
                               key.p,   key.q,     key.p * BigInt(3),
                               key.q * BigInt(3), key.p * (key.q - BigInt(1)),
                               key.q * (key.p - BigInt(1))};
  for (int i = 0; i < 4; ++i) {
    edges.push_back(key.p * BigInt::random_below(key.q, rng));
    edges.push_back(key.q * BigInt::random_below(key.p, rng));
  }
  for (const BigInt& c : edges) {
    ASSERT_EQ(rsa_private_op(key, c), oracle::modexp_divmod(c, key.d, key.n))
        << "bits=" << param.bits << " c=" << c.to_hex();
  }

  int oracle_checked = 0;
  int m1_below_m2 = 0;
  for (int i = 0; i < param.random; ++i) {
    const BigInt c = BigInt::random_below(key.n, rng);
    const BigInt m = rsa_private_op(key, c);
    ASSERT_EQ(rsa_public_op(key.public_key(), m), c)
        << "bits=" << param.bits << " c=" << c.to_hex();
    if (i % param.oracle_every != 0) continue;
    bool below = false;
    ASSERT_EQ(m, crt_oracle(key, c, below))
        << "bits=" << param.bits << " c=" << c.to_hex();
    ++oracle_checked;
    m1_below_m2 += below ? 1 : 0;
  }
  // The recombination's m1 < m2 wrap must have been exercised.
  EXPECT_GT(m1_below_m2, 0);
  EXPECT_LT(m1_below_m2, oracle_checked);
}

// 1000 bits: prime halves of 500 bits, not a multiple of the 64-bit limb.
// At 2048 bits the divmod oracle costs ~30 ms a ciphertext, so one in ten
// is checked against it and every one by re-encryption.
INSTANTIATE_TEST_SUITE_P(KeySizes, RsaPrivateOpOracle,
                         ::testing::Values(CrtCase{512, 2000, 1},
                                           CrtCase{1000, 2000, 1},
                                           CrtCase{1024, 2000, 1},
                                           CrtCase{2048, 2000, 10}),
                         [](const auto& info) {
                           return std::to_string(info.param.bits);
                         });

TEST(Mgf1, KnownLengthAndDeterminism) {
  const auto seed = to_bytes("seed");
  const Bytes a = mgf1_sha256(seed, 100);
  const Bytes b = mgf1_sha256(seed, 100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a, b);
  // Prefix property: longer mask extends the shorter one.
  const Bytes c = mgf1_sha256(seed, 40);
  EXPECT_TRUE(std::equal(c.begin(), c.end(), a.begin()));
  EXPECT_NE(mgf1_sha256(to_bytes("other"), 100), a);
}

}  // namespace
}  // namespace pprox::crypto
