#include "pprox/keys.hpp"

#include <exception>

#include "crypto/hybrid.hpp"

namespace pprox {
namespace {

void put_field(Bytes& out, ByteView field) {
  out.push_back(static_cast<std::uint8_t>(field.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(field.size()));
  append(out, field);
}

// The keyring blob's *contents* are secret; its length-prefix framing is
// not — field lengths are the key-size parameters (modulus width, 32-byte
// symmetric key) that the format itself publishes. Cursor arithmetic over
// that framing is therefore public control flow.
bool get_field(ByteView blob, std::size_t& offset, Bytes& out) {
  if (offset + 2 > blob.size()) return false;  // PPROX-CT-OK(branch): framing
  const std::size_t len =
      (static_cast<std::size_t>(blob[offset]) << 8) |  // PPROX-CT-OK(index): framing
      blob[offset + 1];
  offset += 2;
  if (offset + len > blob.size()) return false;  // PPROX-CT-OK(branch): framing
  out.assign(blob.begin() + static_cast<std::ptrdiff_t>(offset),
             blob.begin() + static_cast<std::ptrdiff_t>(offset + len));
  offset += len;
  return true;
}

}  // namespace

Bytes LayerSecrets::serialize() const {
  Bytes out;
  for (const crypto::BigInt* v :
       {&sk.n, &sk.e, &sk.d, &sk.p, &sk.q, &sk.d_p, &sk.d_q, &sk.q_inv}) {
    put_field(out, v->to_bytes_be());
  }
  put_field(out, k);
  return out;
}

Result<LayerSecrets> LayerSecrets::deserialize(ByteView blob) {
  LayerSecrets secrets;
  std::size_t offset = 0;
  crypto::BigInt* fields[] = {&secrets.sk.n,   &secrets.sk.e,
                              &secrets.sk.d,   &secrets.sk.p,
                              &secrets.sk.q,   &secrets.sk.d_p,
                              &secrets.sk.d_q, &secrets.sk.q_inv};
  for (crypto::BigInt* field : fields) {
    Bytes raw;
    if (!get_field(blob, offset, raw)) {
      return Error::parse("LayerSecrets: truncated key field");
    }
    *field = crypto::BigInt::from_bytes_be(raw);
  }
  if (!get_field(blob, offset, secrets.k)) {
    return Error::parse("LayerSecrets: truncated symmetric key");
  }
  // PPROX-CT-OK(branch): end-of-blob framing check; see get_field above.
  if (offset != blob.size()) {
    return Error::parse("LayerSecrets: trailing bytes");
  }
  if (secrets.k.size() != 32) {
    return Error::parse("LayerSecrets: symmetric key must be 32 bytes");
  }
  if (secrets.sk.n.is_zero()) {
    return Error::parse("LayerSecrets: empty modulus");
  }
  try {
    crypto::rsa_precompute(secrets.sk);
  } catch (const std::exception&) {
    return Error::parse("LayerSecrets: unusable CRT components");
  }
  return secrets;
}

ClientParams ApplicationKeys::client_params() const {
  return ClientParams{ua.sk.public_key(), ia.sk.public_key()};
}

ApplicationKeys ApplicationKeys::generate(RandomSource& rng, std::size_t rsa_bits) {
  ApplicationKeys keys;
  keys.ua.sk = crypto::rsa_generate(rsa_bits, rng).priv;
  keys.ua.k = rng.bytes(32);
  keys.ia.sk = crypto::rsa_generate(rsa_bits, rng).priv;
  keys.ia.k = rng.bytes(32);
  return keys;
}

Status attest_and_provision(enclave::Enclave& enclave,
                            const enclave::AttestationService& authority,
                            const enclave::Measurement& expected,
                            const LayerSecrets& secrets, RandomSource& rng) {
  const Bytes nonce = rng.bytes(16);
  const auto quote = authority.issue_quote(enclave, nonce);
  if (!quote.ok()) return quote.error();
  if (!enclave::AttestationService::verify_quote(
          quote.value(), authority.root_public_key(), expected, nonce,
          enclave.channel_public_key())) {
    return Error::denied("attestation failed: quote rejected");
  }
  auto blob =
      crypto::hybrid_encrypt(enclave.channel_public_key(), secrets.serialize(), rng);
  if (!blob.ok()) return blob.error();
  return enclave.provision(blob.value());
}

}  // namespace pprox
