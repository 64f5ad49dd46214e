// PPROX-LAYER: ia
#include "pprox/logic_ia.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/encoding.hpp"
#include "crypto/ctr.hpp"
#include "crypto/gcm.hpp"
#include "crypto/rsa.hpp"
#include "json/json.hpp"
#include "pprox/pseudonymize.hpp"

namespace pprox {
namespace {

/// Hands out bytes drawn earlier, in order, to APIs that take a
/// RandomSource: seal_batch draws every slot's nonce in one call.
class DrawnBytes final : public RandomSource {
 public:
  explicit DrawnBytes(ByteView bytes) : rest_(bytes) {}

  void fill(MutByteView out) override {
    if (out.size() > rest_.size()) {
      throw std::logic_error("DrawnBytes: asked for more than was drawn");
    }
    std::copy_n(rest_.begin(), out.size(), out.begin());
    rest_ = rest_.subspan(out.size());
  }

 private:
  ByteView rest_;
};

}  // namespace

IaLogic::IaLogic(LayerSecrets secrets)
    : secrets_(std::move(secrets)), det_(secrets_.k) {}

Result<IaLogic> IaLogic::from_secrets(ByteView secrets_blob) {
  auto secrets = LayerSecrets::deserialize(secrets_blob);
  if (!secrets.ok()) return secrets.error();
  return IaLogic(std::move(secrets.value()));
}

Result<SensitiveBlock<taint::ItemDomain>> IaLogic::decrypt_item_block(
    std::string_view base64_cipher) const {
  const auto cipher = base64_decode(base64_cipher);
  // PPROX-CT-OK(branch): base64 framing of adversary-chosen wire input.
  if (!cipher) return Error::parse("field is not valid base64");
  auto plain = crypto::rsa_decrypt_oaep(secrets_.sk, *cipher);
  // PPROX-CT-OK(branch): the unpad itself is branch-free (rsa_unpad_oaep);
  // this reveals only the accept/reject bit the response already carries.
  if (!plain.ok()) return plain.error();
  return SensitiveBlock<taint::ItemDomain>{std::move(plain.value())};
}

Result<Bytes> IaLogic::decrypt_key_field(std::string_view base64_cipher) const {
  const auto cipher = base64_decode(base64_cipher);
  // PPROX-CT-OK(branch): base64 framing of adversary-chosen wire input.
  if (!cipher) return Error::parse("field is not valid base64");
  return crypto::rsa_decrypt_oaep(secrets_.sk, *cipher);
}

Result<std::string> IaLogic::transform_post_request(std::string body,
                                                    bool pseudonymize_items) const {
  const auto item_cipher = json::get_string_field(body, fields::kItem);
  // PPROX-CT-OK(branch): presence of the item field is public JSON framing.
  if (!item_cipher) return Error::parse("post has no item field");
  // PPROX-CT-OK(branch): deployment-config flag (paper §6.3 opt-out), fixed
  // per tenant at startup — not per-request secret data.
  if (pseudonymize_items) {
    auto pseudonym =
        pseudonymize_field<taint::ItemDomain>(secrets_.sk, det_, *item_cipher);
    if (!pseudonym.ok()) return pseudonym.error();
    json::replace_string_field(body, fields::kItem, pseudonym.value());
  } else {
    auto block = decrypt_item_block(*item_cipher);
    if (!block.ok()) return block.error();
    auto id = unpad_sensitive_id(block.value());
    if (!id.ok()) return id.error();
    // PPROX-DECLASSIFY: §6.3 item-pseudonymization opt-out — the operator
    // chose a semantics-aware LRS; item ids (never user ids — the domain
    // constraint enforces it) are forwarded in the clear.
    json::replace_string_field(body, fields::kItem,
                               taint::declassify_for_lrs(std::move(id.value())));
  }
  // Optional payload (rating, weight, ...): decrypt and forward in usable
  // form — the LRS needs the actual value, and it carries no identifier.
  // PPROX-CT-OK(branch): presence of the optional payload field is public
  // JSON framing of the adversary-visible request body.
  if (const auto payload_cipher =
          json::get_string_field(body, fields::kPayload)) {
    auto block = decrypt_item_block(*payload_cipher);
    if (!block.ok()) return block.error();
    auto payload = unpad_sensitive_id(block.value());
    if (!payload.ok()) return payload.error();
    // PPROX-DECLASSIFY: event payloads are identifier-free values the LRS
    // must read to train (paper §2.1); they ride the IA path so only the IA
    // layer ever decrypts them.
    json::replace_string_field(
        body, fields::kPayload,
        json::escape(taint::declassify_for_lrs(std::move(payload.value()))));
  }
  return body;
}

Result<IaLogic::GetRequest> IaLogic::transform_get_request(std::string body) const {
  const auto key_cipher = json::get_string_field(body, fields::kTempKey);
  // PPROX-CT-OK(branch): presence of the field is public JSON framing.
  if (!key_cipher) return Error::parse("get has no temporary key field");
  auto k_u = decrypt_key_field(*key_cipher);
  if (!k_u.ok()) return k_u.error();
  if (k_u.value().size() != 32) {
    return Error::crypto("temporary key has wrong length");
  }
  // Strip the key from the forwarded call: the LRS never sees k_u, and all
  // forwarded get calls look identical in shape.
  json::replace_string_field(body, fields::kTempKey, "");
  return GetRequest{std::move(body), std::move(k_u.value())};
}

void IaLogic::transform_batch(std::span<IaRequestSlot> slots,
                              BatchArena& /*arena*/,
                              const concurrent::FanOut& fan_out) {
  // Posts and gets are JSON rewrites around a single RSA decrypt each —
  // there is no shared keystream to vectorize, so the batch wins here are
  // the amortized transition (S transforms under ONE ecall) and the unwraps
  // spread over the fan-out's threads, one slot per claimed index. The
  // per-slot transforms reuse the sequential entry points so the results
  // (and error strings) are identical by construction.
  fan_out.for_each_index(slots.size(), [slots](std::size_t i) {
    IaRequestSlot& slot = slots[i];
    // PPROX-CT-OK(branch): request kind is the HTTP method — adversary-
    // visible wire metadata, not secret plaintext.
    if (slot.is_get) {
      auto got = slot.logic->transform_get_request(std::move(*slot.body));
      if (!got.ok()) {
        slot.status = got.error();
        return;
      }
      *slot.body = std::move(got.value().body);
      slot.k_u = std::move(got.value().k_u);
    } else {
      auto posted = slot.logic->transform_post_request(std::move(*slot.body),
                                                       slot.pseudonymize_items);
      if (!posted.ok()) {
        slot.status = posted.error();
        return;
      }
      *slot.body = std::move(posted.value());
    }
  });
}

void IaLogic::seal_batch(std::span<IaSealSlot> slots, RandomSource& rng,
                         BatchArena& arena) {
  // Phase 1 — parse every LRS body and gather its pseudonym blocks into one
  // contiguous arena region per slot. Error strings match the per-request
  // oracle (tests/oracle.hpp) exactly, so the differential test compares
  // failures bit-for-bit too.
  for (IaSealSlot& slot : slots) {
    const auto doc = json::parse(*slot.lrs_body);
    if (!doc.ok()) {
      slot.status = doc.error();
      continue;
    }
    const json::JsonValue* items = doc.value().find(fields::kItems);
    // PPROX-CT-OK(branch): JSON framing of the LRS response body.
    if (items == nullptr || !items->is_array()) {
      slot.status = Error::parse("LRS response has no items list");
      continue;
    }
    const auto& array = items->as_array();
    slot.blocks = arena.alloc(array.size() * kIdBlockSize);
    slot.item_count = 0;
    for (const auto& entry : array) {
      // PPROX-CT-OK(branch): base64/size framing of stored wire-format rows.
      if (!entry.is_string()) {
        slot.status = Error::parse("non-string item in response");
        break;
      }
      const auto cipher = base64_decode(entry.as_string());
      // PPROX-CT-OK(branch): base64 framing of stored wire-format rows.
      if (!cipher) {
        slot.status = Error::parse("pseudonym is not valid base64");
        break;
      }
      // PPROX-CT-OK(branch): size framing of stored wire-format rows.
      if (cipher->size() != kIdBlockSize) {
        slot.status = Error::parse("pseudonym block has wrong size");
        break;
      }
      std::copy(cipher->begin(), cipher->end(),
                slot.blocks.begin() +
                    static_cast<std::ptrdiff_t>(slot.item_count * kIdBlockSize));
      ++slot.item_count;
    }
  }

  // Phase 2 — vectorized de-pseudonymize. det decrypt is zero-IV CTR, i.e.
  // a message-independent keystream XOR: compute it once per tenant logic
  // (the 8-wide AES kernel runs once per tenant per flush) and sweep it
  // across every gathered block.
  const IaLogic* keyed_for = nullptr;
  MutByteView ks{};
  for (IaSealSlot& slot : slots) {
    if (!slot.status.ok()) continue;
    // PPROX-CT-OK(branch): tenant-routing identity of the slot, not secret
    // plaintext — which logic instance a response targets is adversary-visible
    // wire metadata; the gathered blocks stay branch-free (XOR only).
    if (slot.logic != keyed_for) {
      ks = arena.alloc(kIdBlockSize);
      slot.logic->det_.keystream(ks);
      keyed_for = slot.logic;
    }
    for (std::size_t i = 0; i < slot.item_count; ++i) {
      xor_into(slot.blocks.subspan(i * kIdBlockSize, kIdBlockSize), ks);
    }
  }

  // Phase 3 — unpad and pad to the constant list length. Which slots fail
  // is known only after this, and failed slots consume no randomness.
  std::vector<SensitiveBlock<taint::ItemDomain>> responses(slots.size());
  std::size_t nonce_bytes = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    IaSealSlot& slot = slots[s];
    if (!slot.status.ok()) continue;
    std::vector<ItemId> plain_items;
    plain_items.reserve(slot.item_count);
    for (std::size_t i = 0; i < slot.item_count; ++i) {
      const auto sub = slot.blocks.subspan(i * kIdBlockSize, kIdBlockSize);
      const SensitiveBlock<taint::ItemDomain> block{Bytes(sub.begin(), sub.end())};
      auto id = unpad_sensitive_id(block);
      if (!id.ok()) {
        slot.status = id.error();
        break;
      }
      plain_items.push_back(std::move(id.value()));
    }
    if (!slot.status.ok()) continue;
    auto block = encode_sensitive_response_block(
        pad_sensitive_recommendations(std::move(plain_items)));
    if (!block.ok()) {
      slot.status = block.error();
      continue;
    }
    responses[s] = std::move(block.value());
    nonce_bytes += slot.authenticated ? crypto::AesGcm::kNonceSize
                                      : crypto::RandomIvCipher::kIvSize;
  }

  // Phase 4 — one draw for every surviving slot's nonce or IV, handed out
  // in slot order: the DRBG is a byte stream, so each slot gets exactly the
  // bytes S sequential seals would have drawn, for one lock instead of S.
  const MutByteView nonces = arena.alloc(nonce_bytes);
  if (nonce_bytes != 0) rng.fill(nonces);
  DrawnBytes drawn(nonces);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    IaSealSlot& slot = slots[s];
    if (!slot.status.ok()) continue;
    // PPROX-DECLASSIFY: the serialized list is immediately sealed under the
    // per-request key k_u, which only this enclave and the requesting client
    // hold; the UA and the network observe ciphertext of constant size.
    const Bytes& raw_block = taint::declassify_for_encryption(responses[s]);
    Bytes encrypted;
    // PPROX-CT-OK(branch): deployment-config flag, fixed per proxy.
    if (slot.authenticated) {
      const crypto::AesGcm cipher(slot.k_u);
      encrypted = cipher.seal_with_random_nonce(raw_block, drawn);
    } else {
      const crypto::RandomIvCipher cipher(slot.k_u);
      encrypted = cipher.encrypt(raw_block, drawn);
    }
    json::JsonValue out{json::JsonObject{}};
    out.set(fields::kPayload, base64_encode(encrypted));
    out.set(fields::kEncryptionMode, slot.authenticated ? "gcm" : "ctr");
    slot.sealed = out.dump();
  }
}

Result<ItemId> IaLogic::de_pseudonymize_item(
    std::string_view base64_cipher) const {
  const auto cipher = base64_decode(base64_cipher);
  // PPROX-CT-OK(branch): base64/size framing of a stored wire-format row.
  if (!cipher) return Error::parse("pseudonym is not valid base64");
  if (cipher->size() != kIdBlockSize) {
    return Error::parse("pseudonym block has wrong size");
  }
  const SensitiveBlock<taint::ItemDomain> block{det_.decrypt(*cipher)};
  return unpad_sensitive_id(block);
}

}  // namespace pprox
