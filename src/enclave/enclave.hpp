// Simulated trusted execution environment (Intel SGX stand-in).
//
// The paper runs the proxy's data-processing threads inside SGX enclaves and
// relies on exactly three TEE behaviours, all modelled here:
//   1. *Attested identity*: secrets are provisioned only after the enclave
//      proves (via a quote signed by the platform authority) that it runs
//      the expected code and that the provisioning channel key belongs to it.
//   2. *Isolation*: code outside the enclave cannot read provisioned secrets
//      or in-enclave state. In this simulation the boundary is the ecall()
//      API — the host only holds opaque handles, and ecall transitions are
//      counted so benches can charge the measured SGX crossing cost.
//   3. *Breachability*: a side-channel attack (costly, one enclave at a
//      time; paper §2.3) is modelled by breach(), after which — and only
//      after which — the adversary may exfiltrate() the sealed secrets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/sync.hpp"
#include "common/rand.hpp"
#include "common/result.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"

namespace pprox::enclave {

/// Enclave code identity: SHA-256 over the code-identity string (MRENCLAVE
/// stand-in).
struct Measurement {
  Bytes digest;

  bool operator==(const Measurement& other) const {
    return digest == other.digest;
  }
  static Measurement of_code(std::string_view code_identity);
};

/// A hosted enclave instance. The channel key pair is generated inside at
/// construction; the private half never leaves unless the enclave is
/// breached.
class Enclave {
 public:
  /// `code_identity` names the code being run (e.g. "pprox-ua-v1");
  /// `channel_key_bits` sizes the provisioning channel RSA key.
  Enclave(std::string code_identity, RandomSource& rng,
          std::size_t channel_key_bits = 1024);

  const Measurement& measurement() const { return measurement_; }
  const std::string& code_identity() const { return code_identity_; }

  /// Public half of the provisioning channel key (safe to publish).
  const crypto::RsaPublicKey& channel_public_key() const { return channel_pub_; }

  /// Installs the secrets blob: `encrypted` is a hybrid_encrypt() of the
  /// secrets under channel_public_key(). Fails if already provisioned.
  Status provision(ByteView encrypted);

  bool provisioned() const { return provisioned_; }

  /// Runs enclave code with access to the provisioned secrets. `fn` is
  /// invoked as fn(ByteView secrets); the transition is counted. Throws
  /// std::logic_error when not yet provisioned (programming error). Exits
  /// when the calling thread holds a pprox lock: a transition has unbounded
  /// latency, so a lock held across it stalls every thread waiting on it.
  /// The transition itself neither allocates nor blocks; what the batch
  /// entry points allocate inside `fn` is pinned per flush by
  /// tests/test_alloc_budget.cpp.
  template <typename Fn>
  auto ecall(Fn&& fn) const -> decltype(fn(ByteView{})) {
    PPROX_ASSERT_HELD_LOCKS(0, "Enclave::ecall while holding a lock");
    require_provisioned();
    transitions_.fetch_add(1, std::memory_order_relaxed);
    return std::forward<Fn>(fn)(ByteView(secrets_));
  }

  /// Number of host<->enclave transitions so far (for the SGX cost model).
  std::uint64_t transition_count() const {
    return transitions_.load(std::memory_order_relaxed);
  }

  // --- Sealing (SGX sealed storage stand-in) -----------------------------
  /// Encrypts data so only an enclave with the same measurement on the same
  /// platform can recover it.
  Bytes seal(ByteView data) const;
  Result<Bytes> unseal(ByteView sealed) const;

  // --- Adversary surface ---------------------------------------------------
  /// Marks the enclave as broken by a side-channel attack.
  void breach() { breached_.store(true, std::memory_order_release); }
  bool breached() const { return breached_.load(std::memory_order_acquire); }

  /// Extracts the provisioned secrets and the channel private key — only
  /// possible after breach(). This is the modelled side-channel leak.
  Result<Bytes> exfiltrate_secrets() const;
  Result<crypto::RsaPrivateKey> exfiltrate_channel_key() const;

 private:
  /// Cold precondition check for ecall(): throws std::logic_error when not
  /// yet provisioned. Out-of-line on purpose — the throw is a
  /// programmer-error trap, not part of the transition's hot path.
  void require_provisioned() const;

  std::string code_identity_;
  Measurement measurement_;
  crypto::RsaPublicKey channel_pub_;
  crypto::RsaPrivateKey channel_priv_;
  Bytes platform_seal_key_;  // per-instance platform sealing root
  Bytes secrets_;
  bool provisioned_ = false;
  mutable Atomic<std::uint64_t> transitions_{0};
  Atomic<bool> breached_{false};
  mutable crypto::Drbg enclave_rng_;
};

}  // namespace pprox::enclave
