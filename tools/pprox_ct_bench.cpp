// pprox_ct_bench — dudect-style dynamic timing-leakage harness (DESIGN.md
// §13.6). The static pass (pprox_lint --ct) proves the *code shape* is
// branch-free; this harness cross-validates the *compiled artifact*: the
// optimizer, the CPU, and the library are all in the measurement loop.
//
// Method (after Reparaz/Balasch/Verbauwhede, "dude, is my code constant
// time?"): for each primitive, prepare two input classes that take the same
// macro path — class 0 a fixed secret-side input, class 1 a fresh
// pseudo-random one — interleave them in a fixed-seed random order, measure
// each invocation in cycles (rdtscp on x86, steady_clock elsewhere), and run
// Welch's t-test on the two timing populations. |t| > 10 flags a leak. The
// threshold is deliberately far above dudect's canonical 4.5: CI boxes are
// noisy, and a miss here is backstopped by the static pass; what this gate
// must never do is flake.
//
// Primitives measured (shipped build):
//   ct_equal           4 KiB unequal compare — both classes reject
//   gcm_tag_check      AesGcm::open with a corrupted tag — both reject
//                      before any plaintext is released
//   rsa_unpad_pkcs1    128-byte em with no 0x00 separator — both reject
//                      after scanning the full block
//   rsa_unpad_oaep     128-byte em that fails the lHash/separator check —
//                      both reject after full unmasking
//   modexp_montgomery  BigInt::modexp over the Montgomery kernel: fixed
//                      1024-bit odd modulus, 256-bit exponents with the top
//                      bit pinned (the window walk is a function of
//                      bit_length alone)
//   rsa_private_op     one 1024-bit key, fixed vs random ciphertext below n
//                      with the same bit length: the CRT reduction, both
//                      exponentiations and the recombination
//
// Under -DPPROX_CHECK_SELFTEST the harness instead measures ONLY a
// deliberately leaky early-exit compare (difference at byte 0 vs. byte
// 65535 of 64 KiB) and must exit 1 — a WILL_FAIL ctest that proves the
// statistics can still see a leak, mirroring the model-checker selftest.
//
// PPROX_CT_SAMPLES overrides the per-primitive sample count (default 20000;
// modexp and the RSA private op run 1/10th of it).
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ct.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/rsa.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace {

using pprox::Bytes;
using pprox::ByteView;
using pprox::crypto::AesGcm;
using pprox::crypto::BigInt;

std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned aux;
  return __rdtscp(&aux);
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Fixed-seed splitmix64: the class schedule and the "random" class inputs
/// are identical on every run, so the gate's verdict is reproducible.
struct SplitMix {
  std::uint64_t s;
  explicit SplitMix(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint8_t byte() { return static_cast<std::uint8_t>(next()); }
  void fill(Bytes& b) {
    for (auto& x : b) x = byte();
  }
};

/// Welch's t statistic over two online-accumulated populations.
struct Welch {
  double n[2] = {0, 0};
  double mean[2] = {0, 0};
  double m2[2] = {0, 0};

  void push(int cls, double x) {
    n[cls] += 1;
    const double d = x - mean[cls];
    mean[cls] += d / n[cls];
    m2[cls] += d * (x - mean[cls]);
  }
  double t() const {
    if (n[0] < 2 || n[1] < 2) return 0;
    const double v0 = m2[0] / (n[0] - 1);
    const double v1 = m2[1] / (n[1] - 1);
    const double denom = v0 / n[0] + v1 / n[1];
    if (denom <= 0) return 0;
    return (mean[0] - mean[1]) / std::sqrt(denom);
  }
};

volatile std::uint64_t g_sink;  // keeps measured results alive

struct Case {
  std::string name;
  std::size_t samples;
  /// prepare(cls) regenerates the per-invocation input for class `cls`;
  /// run() measures one invocation over the prepared input.
  std::function<void(int, SplitMix&)> prepare;
  std::function<std::uint64_t()> run;
};

bool measure(const Case& c) {
  SplitMix rng(0x5050726f78ull);  // constant: "PProx"
  Welch w;
  // Warmup: touch both classes so caches/predictors settle off the record.
  for (int i = 0; i < 64; ++i) {
    c.prepare(i & 1, rng);
    g_sink = g_sink + c.run();
  }
  for (std::size_t i = 0; i < c.samples; ++i) {
    const int cls = static_cast<int>(rng.next() & 1);
    c.prepare(cls, rng);
    const std::uint64_t t0 = now_ticks();
    g_sink = g_sink + c.run();
    const std::uint64_t t1 = now_ticks();
    w.push(cls, static_cast<double>(t1 - t0));
  }
  const double t = w.t();
  const bool leaky = t > 10.0 || t < -10.0;
  std::cout << (leaky ? "LEAKY " : "ok    ") << c.name << "  n0="
            << static_cast<std::uint64_t>(w.n[0])
            << " n1=" << static_cast<std::uint64_t>(w.n[1])
            << " mean0=" << w.mean[0] << " mean1=" << w.mean[1] << " t=" << t
            << "\n";
  return !leaky;
}

std::size_t sample_budget() {
  if (const char* e = std::getenv("PPROX_CT_SAMPLES")) {
    const long v = std::atol(e);
    if (v > 100) return static_cast<std::size_t>(v);
  }
  return 20000;
}

#if defined(PPROX_CHECK_SELFTEST)

/// The planted leak: an early-exit compare over 64 KiB. Class 0 differs at
/// byte 0 (returns immediately), class 1 differs at the last byte (scans
/// everything). Any working t-test sees this from orbit; if this build
/// exits 0 the harness has lost its eyes.
int run_selftest(std::size_t samples) {
  constexpr std::size_t kN = 64 * 1024;
  Bytes a(kN, 0xAB), b(kN, 0xAB);
  auto leaky_equal = [&]() -> std::uint64_t {
    for (std::size_t i = 0; i < kN; ++i) {
      if (a[i] != b[i]) return i;
    }
    return kN;
  };
  Case c;
  c.name = "leaky_equal(selftest)";
  c.samples = samples;
  c.prepare = [&](int cls, SplitMix&) {
    std::memcpy(b.data(), a.data(), kN);
    if (cls == 0) {
      b[0] ^= 0xFF;
    } else {
      b[kN - 1] ^= 0xFF;
    }
  };
  c.run = leaky_equal;
  const bool ok = measure(c);
  std::cout << (ok ? "selftest FAILED to detect the planted leak\n"
                   : "selftest detected the planted leak (expected)\n");
  return ok ? 0 : 1;  // WILL_FAIL: the leak must be found -> exit 1
}

#endif  // PPROX_CHECK_SELFTEST

}  // namespace

int main() {
  const std::size_t samples = sample_budget();
#if defined(PPROX_CHECK_SELFTEST)
  return run_selftest(samples);
#else
  bool all_ok = true;
  SplitMix setup(0x646f7263ull);

  // --- ct_equal: 4 KiB unequal buffers, both classes reject ---------------
  {
    constexpr std::size_t kN = 4096;
    Bytes pub(kN);
    setup.fill(pub);
    Bytes probe(kN);
    Case c;
    c.name = "ct_equal";
    c.samples = samples;
    c.prepare = [&](int cls, SplitMix& rng) {
      if (cls == 0) {
        std::memcpy(probe.data(), pub.data(), kN);
        probe[0] ^= 0xFF;  // fixed: differs at the first byte
      } else {
        rng.fill(probe);  // random: differs (w.h.p.) everywhere
        probe[0] ^= static_cast<std::uint8_t>(probe[0] == pub[0]);
      }
    };
    c.run = [&]() -> std::uint64_t {
      return pprox::crypto::ct_equal(pub, probe) ? 1 : 0;
    };
    all_ok = measure(c) && all_ok;
  }

  // --- GCM tag check: corrupted tag, both classes reject ------------------
  {
    Bytes key(32);  // pprox-lint: allow(secure-wipe): throwaway bench key
    setup.fill(key);
    AesGcm gcm(key);
    std::array<std::uint8_t, AesGcm::kNonceSize> nonce{};
    Bytes plain(1024);
    setup.fill(plain);
    const Bytes sealed = gcm.seal(nonce, plain);
    Bytes tampered = sealed;
    const std::size_t tag_at = sealed.size() - AesGcm::kTagSize;
    Case c;
    c.name = "gcm_tag_check";
    c.samples = samples;
    c.prepare = [&](int cls, SplitMix& rng) {
      std::memcpy(tampered.data() + tag_at, sealed.data() + tag_at,
                  AesGcm::kTagSize);
      if (cls == 0) {
        tampered[tag_at] ^= 0xFF;  // fixed single-byte corruption
      } else {
        for (std::size_t i = 0; i < AesGcm::kTagSize; ++i) {
          tampered[tag_at + i] = rng.byte();  // fully random wrong tag
        }
        tampered[tag_at] ^=
            static_cast<std::uint8_t>(tampered[tag_at] == sealed[tag_at]);
      }
    };
    c.run = [&]() -> std::uint64_t {
      return gcm.open(nonce, tampered).ok() ? 1 : 0;
    };
    all_ok = measure(c) && all_ok;
  }

  // --- PKCS#1 v1.5 unpad: no separator anywhere, both classes reject ------
  {
    constexpr std::size_t kK = 128;
    Bytes em(kK);
    Case c;
    c.name = "rsa_unpad_pkcs1";
    c.samples = samples;
    c.prepare = [&](int cls, SplitMix& rng) {
      em[0] = 0x00;
      em[1] = 0x02;
      for (std::size_t i = 2; i < kK; ++i) {
        // Nonzero fill: the separator scan must sweep the whole block.
        em[i] = cls == 0 ? 0x5A
                         : static_cast<std::uint8_t>(rng.byte() | 1);
      }
    };
    c.run = [&]() -> std::uint64_t {
      return pprox::crypto::rsa_unpad_pkcs1(em).ok() ? 1 : 0;
    };
    all_ok = measure(c) && all_ok;
  }

  // --- OAEP unpad: lHash check fails, both classes reject -----------------
  {
    constexpr std::size_t kK = 128;
    Bytes em(kK);
    Case c;
    c.name = "rsa_unpad_oaep";
    c.samples = samples;
    c.prepare = [&](int cls, SplitMix& rng) {
      if (cls == 0) {
        for (std::size_t i = 0; i < kK; ++i) {
          em[i] = static_cast<std::uint8_t>(i * 37 + 11);
        }
      } else {
        rng.fill(em);
      }
      em[0] = 0x01;  // nonzero leading byte: guaranteed reject either way
    };
    c.run = [&]() -> std::uint64_t {
      return pprox::crypto::rsa_unpad_oaep(em).ok() ? 1 : 0;
    };
    all_ok = measure(c) && all_ok;
  }

  // --- Montgomery modexp: secret exponent, pinned bit length --------------
  {
    Bytes mod_bytes(128);
    setup.fill(mod_bytes);
    mod_bytes[0] |= 0x80;    // full 1024 bits
    mod_bytes[127] |= 0x01;  // odd: Montgomery path
    const BigInt modulus = BigInt::from_bytes_be(mod_bytes);
    const BigInt base(0x10001);
    Bytes exp_fixed(32);
    setup.fill(exp_fixed);
    exp_fixed[0] |= 0x80;
    Bytes exp_bytes = exp_fixed;
    BigInt exponent = BigInt::from_bytes_be(exp_fixed);
    Case c;
    c.name = "modexp_montgomery";
    c.samples = samples / 10 < 1000 ? 1000 : samples / 10;
    c.prepare = [&](int cls, SplitMix& rng) {
      if (cls == 0) {
        exponent = BigInt::from_bytes_be(exp_fixed);
      } else {
        rng.fill(exp_bytes);
        exp_bytes[0] |= 0x80;  // same bit_length as the fixed class
        exponent = BigInt::from_bytes_be(exp_bytes);
      }
    };
    c.run = [&]() -> std::uint64_t {
      return base.modexp(exponent, modulus).bit_length();
    };
    all_ok = measure(c) && all_ok;
  }

  // --- RSA-CRT private op: secret key, attacker-chosen ciphertext ---------
  {
    pprox::crypto::Drbg key_rng(pprox::to_bytes("ct-bench-rsa"));
    const pprox::crypto::RsaPrivateKey key =
        pprox::crypto::rsa_generate(1024, key_rng).priv;
    // Ciphertexts with bit 1022 set and bit 1023 clear: below n (a 1024-bit
    // modulus) and all of one bit length, so only the value differs.
    auto below_n = [](Bytes& bytes) {
      bytes[0] = static_cast<std::uint8_t>((bytes[0] & 0x3F) | 0x40);
    };
    Bytes c_fixed(128);
    setup.fill(c_fixed);
    below_n(c_fixed);
    Bytes c_bytes = c_fixed;
    BigInt ciphertext = BigInt::from_bytes_be(c_fixed);
    Case c;
    c.name = "rsa_private_op";
    c.samples = samples / 10 < 1000 ? 1000 : samples / 10;
    c.prepare = [&](int cls, SplitMix& rng) {
      if (cls == 0) {
        ciphertext = BigInt::from_bytes_be(c_fixed);
      } else {
        rng.fill(c_bytes);
        below_n(c_bytes);
        ciphertext = BigInt::from_bytes_be(c_bytes);
      }
    };
    c.run = [&]() -> std::uint64_t {
      return pprox::crypto::rsa_private_op(key, ciphertext).bit_length();
    };
    all_ok = measure(c) && all_ok;
  }

  std::cout << (all_ok ? "all primitives pass (|t| <= 10)\n"
                       : "timing leak detected\n");
  return all_ok ? 0 : 1;
#endif
}
