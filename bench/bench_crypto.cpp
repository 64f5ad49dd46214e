// Microbenchmarks for the crypto substrate. These are the real measured
// costs behind the simulator's CostModel (DESIGN.md "calibration"): RSA
// private ops dominate the proxy's per-request CPU, deterministic AES is
// nearly free — which is why Fig. 6's encryption bar dwarfs the SGX bar and
// why m4 (no item pseudonymization) is indistinguishable from m3. With the
// dispatch layer (crypto/accel.hpp) that gap widens further: on AES-NI
// hardware the pipelined CTR/GCM kernels run >20x the portable S-box path,
// so pseudonymization drops even deeper below the RSA bar.
//
// Every hot-path benchmark is registered twice, as <name>/portable and
// <name>/accel (BENCHMARK_CAPTURE), pinning the corresponding backend via
// accel::select_backend. scripts/bench_report.py pairs them up and emits
// the speedup table in BENCH_crypto.json; the acceptance floor is >=5x for
// CTR/GCM on 1 KiB+ payloads. The RSA and modexp pairs run the same
// Montgomery kernel (crypto/mont.hpp) under both names, so their speedup
// reads ~1x; they stay paired so the series keep their names.
#include <benchmark/benchmark.h>

#include "crypto/accel.hpp"
#include "crypto/ctr.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hybrid.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "pprox/message.hpp"

namespace {

using namespace pprox;
using namespace pprox::crypto;

Drbg& bench_rng() {
  static Drbg rng(to_bytes("bench-crypto"));
  return rng;
}

const RsaKeyPair& keys_1024() {
  static RsaKeyPair keys = rsa_generate(1024, bench_rng());
  return keys;
}

const RsaKeyPair& keys_2048() {
  static RsaKeyPair keys = rsa_generate(2048, bench_rng());
  return keys;
}

/// Pins `backend` for a dual-registered benchmark; skips the accelerated
/// variant cleanly on CPUs without AES-NI/CLMUL so the JSON report stays
/// machine-readable everywhere.
bool pin_backend(benchmark::State& state, accel::Backend backend) {
  if (!accel::select_backend(backend)) {
    state.SkipWithError("hardware acceleration unavailable on this CPU");
    return false;
  }
  return true;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = bench_rng().bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = bench_rng().bytes(32);
  const Bytes data = bench_rng().bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_AesBlock(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  const Aes aes(bench_rng().bytes(32));
  std::uint8_t block[16] = {};
  for (auto _ : state) {
    aes.encrypt_block(block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK_CAPTURE(BM_AesBlock, portable, accel::Backend::kPortable);
BENCHMARK_CAPTURE(BM_AesBlock, accel, accel::Backend::kAccelerated);

void BM_AesCtr(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  const Aes aes(bench_rng().bytes(32));
  const Bytes data = bench_rng().bytes(static_cast<std::size_t>(state.range(0)));
  const std::array<std::uint8_t, 16> iv{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctr_crypt(aes, iv, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK_CAPTURE(BM_AesCtr, portable, accel::Backend::kPortable)
    ->Arg(48)->Arg(1024)->Arg(16384)->Arg(65536);
BENCHMARK_CAPTURE(BM_AesCtr, accel, accel::Backend::kAccelerated)
    ->Arg(48)->Arg(1024)->Arg(16384)->Arg(65536);

// GCM is the hardened response-protection option; seal = CTR + GHASH, so it
// exercises both the AES-NI pipeline and the CLMUL kernel.
void BM_GcmSeal(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  const AesGcm gcm(bench_rng().bytes(32));
  const Bytes data = bench_rng().bytes(static_cast<std::size_t>(state.range(0)));
  std::array<std::uint8_t, AesGcm::kNonceSize> nonce{};
  bench_rng().fill(MutByteView(nonce.data(), nonce.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.seal(nonce, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK_CAPTURE(BM_GcmSeal, portable, accel::Backend::kPortable)
    ->Arg(1024)->Arg(16384);
BENCHMARK_CAPTURE(BM_GcmSeal, accel, accel::Backend::kAccelerated)
    ->Arg(1024)->Arg(16384);

void BM_GcmOpen(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  const AesGcm gcm(bench_rng().bytes(32));
  const Bytes data = bench_rng().bytes(static_cast<std::size_t>(state.range(0)));
  std::array<std::uint8_t, AesGcm::kNonceSize> nonce{};
  bench_rng().fill(MutByteView(nonce.data(), nonce.size()));
  const Bytes sealed = gcm.seal(nonce, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.open(nonce, sealed));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK_CAPTURE(BM_GcmOpen, portable, accel::Backend::kPortable)->Arg(1024);
BENCHMARK_CAPTURE(BM_GcmOpen, accel, accel::Backend::kAccelerated)->Arg(1024);

// The pseudonymization primitive: det_enc over one identifier block.
// CostModel.det_enc_ms derives from this.
void BM_DetEncIdBlock(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  const DeterministicCipher det(bench_rng().bytes(32));
  const Bytes block = pad_identifier("user-123456").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.encrypt(block));
  }
}
BENCHMARK_CAPTURE(BM_DetEncIdBlock, portable, accel::Backend::kPortable);
BENCHMARK_CAPTURE(BM_DetEncIdBlock, accel, accel::Backend::kAccelerated);

// Response protection: AES-CTR random-IV over the fixed response block.
void BM_ResponseBlockEncrypt(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  const RandomIvCipher cipher(bench_rng().bytes(32));
  const Bytes block(kResponseBlockSize, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.encrypt(block, bench_rng()));
  }
}
BENCHMARK_CAPTURE(BM_ResponseBlockEncrypt, portable, accel::Backend::kPortable);
BENCHMARK_CAPTURE(BM_ResponseBlockEncrypt, accel, accel::Backend::kAccelerated);

// Client-side cost: CostModel.client_encrypt_ms derives from two of these.
void BM_RsaOaepEncrypt(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  const auto& keys = state.range(0) == 1024 ? keys_1024() : keys_2048();
  const Bytes block = pad_identifier("user-123456").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_encrypt_oaep(keys.pub, block, bench_rng()));
  }
}
BENCHMARK_CAPTURE(BM_RsaOaepEncrypt, portable, accel::Backend::kPortable)
    ->Arg(1024)->Arg(2048);
BENCHMARK_CAPTURE(BM_RsaOaepEncrypt, accel, accel::Backend::kAccelerated)
    ->Arg(1024)->Arg(2048);

// The proxy's dominant cost: CostModel.rsa_decrypt_ms derives from this.
// /accel and /portable run the same CRT op on the Montgomery kernel
// (crypto/mont.hpp), which is off the backend switch; OAEP uses no AES.
void BM_RsaOaepDecrypt(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  const auto& keys = state.range(0) == 1024 ? keys_1024() : keys_2048();
  const Bytes block = pad_identifier("user-123456").value();
  const Bytes ct = rsa_encrypt_oaep(keys.pub, block, bench_rng()).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_decrypt_oaep(keys.priv, ct));
  }
}
BENCHMARK_CAPTURE(BM_RsaOaepDecrypt, portable, accel::Backend::kPortable)
    ->Arg(1024)->Arg(2048);
BENCHMARK_CAPTURE(BM_RsaOaepDecrypt, accel, accel::Backend::kAccelerated)
    ->Arg(1024)->Arg(2048);

void BM_RsaSign(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  const Bytes msg = bench_rng().bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign_sha256(keys_1024().priv, msg));
  }
}
BENCHMARK_CAPTURE(BM_RsaSign, portable, accel::Backend::kPortable);
BENCHMARK_CAPTURE(BM_RsaSign, accel, accel::Backend::kAccelerated);

void BM_RsaVerify(benchmark::State& state) {
  const Bytes msg = bench_rng().bytes(256);
  const Bytes sig = rsa_sign_sha256(keys_1024().priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify_sha256(keys_1024().pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify);

void BM_HybridProvisioningBlob(benchmark::State& state) {
  const Bytes secrets = bench_rng().bytes(1200);  // ~ serialized LayerSecrets
  for (auto _ : state) {
    benchmark::DoNotOptimize(hybrid_encrypt(keys_1024().pub, secrets, bench_rng()));
  }
}
BENCHMARK(BM_HybridProvisioningBlob);

void BM_DrbgFill(benchmark::State& state) {
  Bytes buf(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bench_rng().fill(buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DrbgFill)->Arg(32)->Arg(4096);

void BM_BigIntModExp(benchmark::State& state, accel::Backend backend) {
  if (!pin_backend(state, backend)) return;
  Drbg rng(to_bytes("bench-modexp"));  // same operands for both backends
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt base = BigInt::random_with_bits(bits, rng);
  const BigInt exp = BigInt::random_with_bits(bits, rng);
  BigInt mod = BigInt::random_with_bits(bits, rng);
  if (!mod.is_odd()) mod = mod + BigInt(1);  // modexp needs an odd modulus
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.modexp(exp, mod));
  }
}
BENCHMARK_CAPTURE(BM_BigIntModExp, portable, accel::Backend::kPortable)
    ->Arg(1024)->Arg(2048);
BENCHMARK_CAPTURE(BM_BigIntModExp, accel, accel::Backend::kAccelerated)
    ->Arg(1024)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
