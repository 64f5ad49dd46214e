// PPROX-LAYER: tooling
//
// Negative-RUN case: Enclave::ecall must not run under a pprox lock
// (PPROX_SYNC_ASSERT exits 1). The control releases the lock first.
#include "crypto/drbg.hpp"
#include "crypto/hybrid.hpp"
#include "enclave/enclave.hpp"

int main() {
  pprox::crypto::Drbg rng(pprox::to_bytes("cf-lock-ecall"));
  pprox::enclave::Enclave enclave("pprox-ua-v1", rng);
  const auto blob = pprox::crypto::hybrid_encrypt(
      enclave.channel_public_key(), pprox::to_bytes("secrets"), rng);
  if (!blob.ok() || !enclave.provision(blob.value()).ok()) return 2;
  const auto size = [](pprox::ByteView secrets) { return secrets.size(); };
  pprox::Mutex mu;
  {
    pprox::LockGuard lock(mu);
#ifdef PPROX_VIOLATION
    enclave.ecall(size);
#endif
  }
  return enclave.ecall(size) == 7 ? 0 : 1;
}
