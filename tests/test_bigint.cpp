// BigInt arithmetic: known answers plus randomized algebraic property sweeps
// (the division and modexp paths are what RSA correctness rides on), and
// the Montgomery kernel under modexp checked against the divmod oracle at
// every supported width.
#include <gtest/gtest.h>

#include <vector>

#include "common/rand.hpp"
#include "crypto/bigint.hpp"
#include "crypto/mont.hpp"
#include "crypto/prime.hpp"
#include "oracle.hpp"

namespace pprox::crypto {
namespace {

TEST(BigInt, ConstructionAndHex) {
  EXPECT_EQ(BigInt(0).to_hex(), "0");
  EXPECT_EQ(BigInt(255).to_hex(), "ff");
  EXPECT_EQ(BigInt(0x123456789abcdefULL).to_hex(), "123456789abcdef");
  EXPECT_TRUE(BigInt(0).is_zero());
  EXPECT_FALSE(BigInt(1).is_zero());
}

TEST(BigInt, FromHexRoundTrip) {
  const auto v = BigInt::from_hex("deadbeefcafebabe0123456789");
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe0123456789");
  EXPECT_THROW(BigInt::from_hex("xyz"), std::invalid_argument);
}

TEST(BigInt, BytesBigEndianRoundTrip) {
  const Bytes data = {0x01, 0x02, 0x03, 0x04, 0x05};
  const auto v = BigInt::from_bytes_be(data);
  EXPECT_EQ(v.to_hex(), "102030405");
  EXPECT_EQ(v.to_bytes_be(), data);
  EXPECT_EQ(v.to_bytes_be(8), (Bytes{0, 0, 0, 0x01, 0x02, 0x03, 0x04, 0x05}));
}

TEST(BigInt, ZeroSerializesAsOneByte) {
  EXPECT_EQ(BigInt(0).to_bytes_be(), Bytes{0});
  EXPECT_EQ(BigInt(0).to_bytes_be(4), (Bytes{0, 0, 0, 0}));
}

TEST(BigInt, LeadingZeroBytesIgnored) {
  const Bytes a = {0x00, 0x00, 0x12, 0x34};
  const Bytes b = {0x12, 0x34};
  EXPECT_EQ(BigInt::from_bytes_be(a), BigInt::from_bytes_be(b));
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_GT(BigInt::from_hex("100000000"), BigInt(0xFFFFFFFFULL));
  EXPECT_EQ(BigInt(7), BigInt(7));
  EXPECT_LE(BigInt(7), BigInt(7));
}

TEST(BigInt, AddSubKnown) {
  const auto a = BigInt::from_hex("ffffffffffffffff");
  const auto b = BigInt(1);
  EXPECT_EQ((a + b).to_hex(), "10000000000000000");
  EXPECT_EQ(((a + b) - b), a);
  EXPECT_THROW(BigInt(1) - BigInt(2), std::underflow_error);
}

TEST(BigInt, MulKnown) {
  const auto a = BigInt::from_hex("ffffffff");
  EXPECT_EQ((a * a).to_hex(), "fffffffe00000001");
  EXPECT_TRUE((a * BigInt(0)).is_zero());
}

TEST(BigInt, ShiftKnown) {
  EXPECT_EQ((BigInt(1) << 64).to_hex(), "10000000000000000");
  EXPECT_EQ((BigInt::from_hex("10000000000000000") >> 64), BigInt(1));
  EXPECT_EQ((BigInt::from_hex("ff") << 4).to_hex(), "ff0");
  EXPECT_EQ((BigInt::from_hex("ff0") >> 4).to_hex(), "ff");
  EXPECT_TRUE((BigInt(1) >> 1).is_zero());
}

TEST(BigInt, BitLengthAndBit) {
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_TRUE(BigInt(5).bit(0));
  EXPECT_FALSE(BigInt(5).bit(1));
  EXPECT_TRUE(BigInt(5).bit(2));
  EXPECT_FALSE(BigInt(5).bit(100));
}

TEST(BigInt, DivModKnown) {
  const auto dm = BigInt(100).divmod(BigInt(7));
  EXPECT_EQ(dm.quotient, BigInt(14));
  EXPECT_EQ(dm.remainder, BigInt(2));
  EXPECT_THROW(BigInt(1).divmod(BigInt(0)), std::domain_error);
}

TEST(BigInt, DivModMultiLimbKnown) {
  const auto a = BigInt::from_hex("123456789abcdef0123456789abcdef0");
  const auto b = BigInt::from_hex("fedcba9876543210");
  const auto dm = a.divmod(b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_LT(dm.remainder, b);
}

TEST(BigInt, DivisionStressTopQuotientDigit) {
  // Regression shape: dividend whose normalized form occupies an extra limb;
  // the quotient needs its top digit.
  const auto a = BigInt::from_hex("ffffffffffffffffffffffff");
  const auto b = BigInt::from_hex("8000000000000001");
  const auto dm = a.divmod(b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_LT(dm.remainder, b);
}

class BigIntRandom : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BigIntRandom, DivModIdentityHolds) {
  SplitMix64 rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_with_bits(GetParam() * 37 + 64, rng);
    const BigInt b = BigInt::random_with_bits(GetParam() * 11 + 32, rng);
    const auto dm = a.divmod(b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
    EXPECT_LT(dm.remainder, b);
  }
}

TEST_P(BigIntRandom, MulDivInverse) {
  SplitMix64 rng(GetParam() + 1000);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_with_bits(GetParam() * 23 + 40, rng);
    const BigInt b = BigInt::random_with_bits(GetParam() * 17 + 20, rng);
    EXPECT_EQ((a * b) / b, a);
    EXPECT_TRUE(((a * b) % b).is_zero());
  }
}

TEST_P(BigIntRandom, AddSubInverse) {
  SplitMix64 rng(GetParam() + 2000);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_with_bits(GetParam() * 29 + 50, rng);
    const BigInt b = BigInt::random_with_bits(GetParam() * 13 + 30, rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a + b, b + a);
  }
}

TEST_P(BigIntRandom, ShiftRoundTrip) {
  SplitMix64 rng(GetParam() + 3000);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_with_bits(GetParam() * 19 + 33, rng);
    const std::size_t s = rng.next_below(130);
    EXPECT_EQ((a << s) >> s, a);
    EXPECT_EQ(a << s, a * (BigInt(1) << s));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntRandom, ::testing::Values(1, 2, 3, 5, 8));

TEST(BigInt, FuzzAgainstNative128BitReference) {
  // Exhaustive-style differential check against unsigned __int128 for
  // operands that fit: every operator must agree with the hardware.
  SplitMix64 rng(12345);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a64 = rng.next() >> (rng.next_below(63));
    const std::uint64_t b64 = (rng.next() >> (rng.next_below(63))) | 1;
    const BigInt a(a64), b(b64);
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(a64) * b64;
    const BigInt expected_prod = (BigInt(static_cast<std::uint64_t>(prod >> 64))
                                  << 64) +
                                 BigInt(static_cast<std::uint64_t>(prod));
    ASSERT_EQ(a * b, expected_prod) << a64 << " * " << b64;
    const unsigned __int128 sum = static_cast<unsigned __int128>(a64) + b64;
    const BigInt expected_sum =
        (BigInt(static_cast<std::uint64_t>(sum >> 64)) << 64) +
        BigInt(static_cast<std::uint64_t>(sum));
    ASSERT_EQ(a + b, expected_sum);
    if (a64 >= b64) {
      ASSERT_EQ(a - b, BigInt(a64 - b64));
    }
    ASSERT_EQ(a / b, BigInt(a64 / b64));
    ASSERT_EQ(a % b, BigInt(a64 % b64));
    ASSERT_EQ(BigInt::gcd(a, b), BigInt(std::__gcd(a64, b64)));
  }
}

TEST(BigInt, FuzzDivModWideDividendNarrowDivisor) {
  // The Algorithm-D qhat-correction paths trigger most often with extreme
  // digit patterns; hammer them with adversarial limbs.
  SplitMix64 rng(777);
  for (int i = 0; i < 500; ++i) {
    Bytes a_bytes(static_cast<std::size_t>(8 + rng.next_below(40)));
    Bytes b_bytes(static_cast<std::size_t>(4 + rng.next_below(12)));
    // Bias toward 0x00/0xFF-heavy patterns.
    for (auto& byte : a_bytes) {
      const auto roll = rng.next_below(4);
      byte = roll == 0 ? 0x00 : roll == 1 ? 0xFF
                                          : static_cast<std::uint8_t>(rng.next());
    }
    for (auto& byte : b_bytes) {
      const auto roll = rng.next_below(4);
      byte = roll == 0 ? 0x00 : roll == 1 ? 0xFF
                                          : static_cast<std::uint8_t>(rng.next());
    }
    const BigInt a = BigInt::from_bytes_be(a_bytes);
    const BigInt b = BigInt::from_bytes_be(b_bytes);
    if (b.is_zero()) continue;
    const auto dm = a.divmod(b);
    ASSERT_EQ(dm.quotient * b + dm.remainder, a);
    ASSERT_LT(dm.remainder, b);
  }
}

TEST(BigInt, ModexpKnown) {
  // 3^7 mod 11 = 2187 mod 11 = 9
  EXPECT_EQ(BigInt(3).modexp(BigInt(7), BigInt(11)), BigInt(9));
  // Fermat: a^(p-1) = 1 mod p for prime p.
  const BigInt p(1000003);
  EXPECT_EQ(BigInt(12345).modexp(p - BigInt(1), p), BigInt(1));
  EXPECT_EQ(BigInt(5).modexp(BigInt(0), BigInt(7)), BigInt(1));
  // Everything is 0 mod 1, including x^0.
  EXPECT_TRUE(BigInt(5).modexp(BigInt(0), BigInt(1)).is_zero());
}

TEST(BigInt, ModexpRequiresAnOddModulus) {
  // Even moduli have no Montgomery form; modexp refuses them, and the
  // divmod oracle keeps the even-modulus answers.
  EXPECT_THROW(BigInt(3).modexp(BigInt(7), BigInt(10)), std::domain_error);
  EXPECT_THROW(BigInt(3).modexp(BigInt(7), BigInt()), std::domain_error);
  EXPECT_EQ(oracle::modexp_divmod(BigInt(3), BigInt(7), BigInt(10)), BigInt(7));
  EXPECT_EQ(oracle::modexp_divmod(BigInt(3), BigInt(4), BigInt(10)), BigInt(1));
  // Wider than the kernel's 4096 bits.
  const BigInt wide = (BigInt(1) << 4096) + BigInt(1);
  EXPECT_THROW(BigInt(3).modexp(BigInt(7), wide), std::domain_error);
}

TEST(BigInt, Limbs64RoundTrip) {
  SplitMix64 rng(64);
  for (std::size_t limbs = 1; limbs <= 9; ++limbs) {
    std::vector<std::uint64_t> in(limbs), out(limbs + 2, 0xAA);
    for (auto& w : in) w = rng.next();
    const BigInt v = BigInt::from_limbs64(in.data(), limbs);
    v.to_limbs64(out.data(), limbs + 2);  // zero-pads the extra limbs
    EXPECT_TRUE(std::equal(in.begin(), in.end(), out.begin()));
    EXPECT_EQ(out[limbs], 0u);
    EXPECT_EQ(out[limbs + 1], 0u);
    EXPECT_THROW(v.to_limbs64(out.data(), limbs - 1), std::length_error);
  }
}

/// Odd moduli of exactly `limbs` 64-bit limbs that stress the kernel: all
/// ones (R - n = 0 fires the final subtract constantly), all-ones top limbs
/// over random low limbs, random with the top bit set, and a top limb of 1
/// (the widest gap to R; at one limb that is the modulus 1).
std::vector<BigInt> stress_moduli(std::size_t limbs, SplitMix64& rng) {
  std::vector<BigInt> out;
  std::vector<std::uint64_t> w(limbs);
  const auto emit = [&] {
    w[0] |= 1;
    out.push_back(BigInt::from_limbs64(w.data(), limbs));
  };
  std::fill(w.begin(), w.end(), ~std::uint64_t{0});
  emit();
  for (auto& x : w) x = rng.next();
  w[limbs - 1] = ~std::uint64_t{0};
  if (limbs > 1) w[limbs - 2] = ~std::uint64_t{0};
  emit();
  for (auto& x : w) x = rng.next();
  w[limbs - 1] |= std::uint64_t{1} << 63;
  emit();
  for (auto& x : w) x = rng.next();
  w[limbs - 1] = 1;
  emit();
  return out;
}

TEST(Montgomery, MatchesDivmodOracleAtEveryWidth) {
  SplitMix64 rng(4096);
  for (std::size_t limbs = 1; limbs <= kMontMaxLimbs; ++limbs) {
    std::vector<std::uint64_t> ones(limbs, ~std::uint64_t{0});
    const BigInt all_ones = BigInt::from_limbs64(ones.data(), limbs);
    for (const BigInt& n : stress_moduli(limbs, rng)) {
      const BigInt n_minus_1 = n - BigInt(1);
      const BigInt below_n =
          n_minus_1.is_zero() ? BigInt() : BigInt::random_below(n, rng);
      const BigInt wide = BigInt::random_with_bits(128 * limbs, rng);
      // Short exponents at wide widths keep the divmod oracle quick; the
      // width, not the exponent length, is what this sweep is after.
      const std::size_t e_bits = limbs <= 16 ? 128 : 48;
      const BigInt e = BigInt::random_with_bits(1 + rng.next_below(e_bits), rng);
      const std::pair<BigInt, BigInt> cases[] = {
          {BigInt(), e},      {BigInt(1), e},          {n_minus_1, e},
          {all_ones, e},      {below_n, e},            {wide, e},
          {below_n, BigInt()}, {below_n, BigInt(1)},
          {all_ones, BigInt(~std::uint64_t{0})},
      };
      for (const auto& [base, exponent] : cases) {
        ASSERT_EQ(base.modexp(exponent, n),
                  oracle::modexp_divmod(base, exponent, n))
            << "limbs=" << limbs << " n=" << n.to_hex()
            << " base=" << base.to_hex() << " e=" << exponent.to_hex();
      }
    }
  }
}

TEST(Montgomery, FullWidthExponentsMatchDivmodOracle) {
  // Long exponents walk every window of the table; n - 1 and n - 2 have
  // known answers for the prime modulus too.
  SplitMix64 rng(512);
  for (std::size_t limbs = 1; limbs <= 8; ++limbs) {
    for (const BigInt& n : stress_moduli(limbs, rng)) {
      if (n.bit_length() < 3) continue;
      const BigInt base = BigInt::random_below(n, rng);
      for (const BigInt& e : {n - BigInt(1), n - BigInt(2),
                              BigInt::random_with_bits(n.bit_length(), rng)}) {
        ASSERT_EQ(base.modexp(e, n), oracle::modexp_divmod(base, e, n))
            << "limbs=" << limbs << " n=" << n.to_hex();
      }
    }
  }
  const BigInt p = generate_prime(256, rng);
  const BigInt a = BigInt::random_below(p - BigInt(1), rng) + BigInt(1);
  EXPECT_EQ(a.modexp(p - BigInt(2), p) * a % p, BigInt(1));  // Fermat inverse
}

TEST(BigInt, ModexpLargeFermat) {
  SplitMix64 rng(77);
  const BigInt p = generate_prime(128, rng);
  const BigInt a = BigInt::random_below(p - BigInt(2), rng) + BigInt(2);
  EXPECT_EQ(a.modexp(p - BigInt(1), p), BigInt(1));
}

TEST(BigInt, GcdKnown) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(BigInt, ModInverse) {
  // 3 * 7 = 21 = 1 mod 10
  EXPECT_EQ(BigInt(3).modinv(BigInt(10)), BigInt(7));
  // Non-invertible: gcd(4, 10) = 2.
  EXPECT_TRUE(BigInt(4).modinv(BigInt(10)).is_zero());
}

TEST(BigInt, ModInverseRandomized) {
  SplitMix64 rng(5);
  const BigInt m = generate_prime(96, rng);
  for (int i = 0; i < 20; ++i) {
    const BigInt a = BigInt::random_below(m - BigInt(1), rng) + BigInt(1);
    const BigInt inv = a.modinv(m);
    EXPECT_EQ((a * inv) % m, BigInt(1));
  }
}

TEST(BigInt, RandomBelowInRange) {
  SplitMix64 rng(9);
  const BigInt bound = BigInt::from_hex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::random_below(bound, rng), bound);
  }
}

TEST(BigInt, RandomWithBitsExactWidth) {
  SplitMix64 rng(13);
  for (std::size_t bits : {8u, 33u, 64u, 65u, 257u}) {
    EXPECT_EQ(BigInt::random_with_bits(bits, rng).bit_length(), bits);
  }
}

TEST(Prime, SmallKnownPrimes) {
  SplitMix64 rng(1);
  EXPECT_TRUE(is_probable_prime(BigInt(2), rng));
  EXPECT_TRUE(is_probable_prime(BigInt(3), rng));
  EXPECT_TRUE(is_probable_prime(BigInt(97), rng));
  EXPECT_TRUE(is_probable_prime(BigInt(1000003), rng));
  EXPECT_FALSE(is_probable_prime(BigInt(1), rng));
  EXPECT_FALSE(is_probable_prime(BigInt(0), rng));
  EXPECT_FALSE(is_probable_prime(BigInt(100), rng));
  EXPECT_FALSE(is_probable_prime(BigInt(1000001), rng));  // 101 * 9901
}

TEST(Prime, CarmichaelNumbersRejected) {
  SplitMix64 rng(2);
  for (std::uint64_t n : {561ULL, 1105ULL, 1729ULL, 2465ULL, 6601ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt(n), rng)) << n;
  }
}

TEST(Prime, GeneratedPrimesHaveRequestedWidth) {
  SplitMix64 rng(3);
  for (std::size_t bits : {32u, 64u, 128u}) {
    const BigInt p = generate_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

}  // namespace
}  // namespace pprox::crypto
