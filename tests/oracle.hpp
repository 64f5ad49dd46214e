// Reference implementations the differential tests compare production paths
// against.
//
// The proxy runs only the batch forms (UaLogic::transform_batch,
// IaLogic::seal_batch), which stage blocks in an arena and XOR one
// keystream per tenant per flush. The one-request-at-a-time transforms
// here, built straight from a layer's LayerSecrets, are the oracle the
// batch forms are compared against bit for bit: same output bytes, same
// error strings, same RNG draws in the same order.
//
// modexp_divmod is the reference for the Montgomery kernel behind
// BigInt::modexp and rsa_private_op (crypto/mont.hpp).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/encoding.hpp"
#include "common/rand.hpp"
#include "common/result.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ctr.hpp"
#include "crypto/gcm.hpp"
#include "json/json.hpp"
#include "pprox/keys.hpp"
#include "pprox/message.hpp"
#include "pprox/pseudonymize.hpp"

namespace pprox::oracle {

/// UA, post or get request: replaces the "user" field with its det_enc
/// pseudonym under the UA's permanent key.
inline Result<std::string> ua_transform_request(const LayerSecrets& ua,
                                                std::string body) {
  const auto user_cipher = json::get_string_field(body, fields::kUser);
  if (!user_cipher) return Error::parse("request has no user field");
  const crypto::DeterministicCipher det(ua.k);
  auto pseudonym =
      pseudonymize_field<taint::UserDomain>(ua.sk, det, *user_cipher);
  if (!pseudonym.ok()) return pseudonym.error();
  json::replace_string_field(body, fields::kUser, pseudonym.value());
  return body;
}

/// IA, get response: de-pseudonymizes the LRS item list, pads it to the
/// constant length, and seals it under k_u (AES-GCM when `authenticated`,
/// the paper's AES-CTR otherwise).
inline Result<std::string> ia_transform_get_response(
    const LayerSecrets& ia, const std::string& lrs_body, ByteView k_u,
    RandomSource& rng, bool authenticated = false) {
  const auto doc = json::parse(lrs_body);
  if (!doc.ok()) return doc.error();
  const json::JsonValue* items = doc.value().find(fields::kItems);
  if (items == nullptr || !items->is_array()) {
    return Error::parse("LRS response has no items list");
  }
  const crypto::DeterministicCipher det(ia.k);
  std::vector<ItemId> plain_items;
  for (const auto& entry : items->as_array()) {
    if (!entry.is_string()) return Error::parse("non-string item in response");
    const auto cipher = base64_decode(entry.as_string());
    if (!cipher) return Error::parse("pseudonym is not valid base64");
    if (cipher->size() != kIdBlockSize) {
      return Error::parse("pseudonym block has wrong size");
    }
    auto id = unpad_sensitive_id(
        SensitiveBlock<taint::ItemDomain>{det.decrypt(*cipher)});
    if (!id.ok()) return id.error();
    plain_items.push_back(std::move(id.value()));
  }

  auto block = encode_sensitive_response_block(
      pad_sensitive_recommendations(std::move(plain_items)));
  if (!block.ok()) return block.error();
  const Bytes& raw_block = taint::declassify_for_encryption(block.value());
  Bytes encrypted;
  if (authenticated) {
    encrypted = crypto::AesGcm(k_u).seal_with_random_nonce(raw_block, rng);
  } else {
    encrypted = crypto::RandomIvCipher(k_u).encrypt(raw_block, rng);
  }
  json::JsonValue out{json::JsonObject{}};
  out.set(fields::kPayload, base64_encode(encrypted));
  out.set(fields::kEncryptionMode, authenticated ? "gcm" : "ctr");
  return out.dump();
}

/// (base ^ exponent) mod modulus by right-to-left square-and-multiply over
/// BigInt's Knuth divmod: no Montgomery arithmetic, any nonzero modulus.
/// The differential reference for BigInt::modexp and rsa_private_op. It
/// branches on exponent bits and is variable-time: tests only.
inline crypto::BigInt modexp_divmod(const crypto::BigInt& base,
                                    const crypto::BigInt& exponent,
                                    const crypto::BigInt& modulus) {
  crypto::BigInt result(1);
  crypto::BigInt power = base % modulus;
  for (std::size_t i = 0; i < exponent.bit_length(); ++i) {
    if (exponent.bit(i)) result = (result * power) % modulus;
    power = (power * power) % modulus;
  }
  return result % modulus;
}

}  // namespace pprox::oracle
