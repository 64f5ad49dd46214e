// PPROX-LAYER: ua
#include "pprox/logic_ua.hpp"

#include <algorithm>

#include "common/encoding.hpp"
#include "crypto/rsa.hpp"
#include "json/json.hpp"

namespace pprox {

UaLogic::UaLogic(LayerSecrets secrets)
    : secrets_(std::move(secrets)), det_(secrets_.k) {}

Result<UaLogic> UaLogic::from_secrets(ByteView secrets_blob) {
  auto secrets = LayerSecrets::deserialize(secrets_blob);
  if (!secrets.ok()) return secrets.error();
  return UaLogic(std::move(secrets.value()));
}

void UaLogic::transform_batch(std::span<UaBatchSlot> slots, BatchArena& arena,
                              const concurrent::FanOut& fan_out) {
  // Phase 1 — decode + RSA-unwrap every slot's identifier into arena-staged
  // 48-byte blocks, one slot per claimed index across the fan-out's threads.
  // The arena is single-threaded, so every slot's block is carved out here,
  // before the parallel section. Error strings match the per-request oracle
  // (tests/oracle.hpp) exactly, so the differential test compares failures
  // bit-for-bit too.
  const MutByteView staged = arena.alloc(slots.size() * kIdBlockSize);
  fan_out.for_each_index(slots.size(), [slots, staged](std::size_t i) {
    UaBatchSlot& slot = slots[i];
    const auto user_cipher = json::get_string_field(*slot.body, fields::kUser);
    // PPROX-CT-OK(branch): presence of the user field is public JSON framing
    // of an adversary-visible request; the 4xx reveals the same bit.
    if (!user_cipher) {
      slot.status = Error::parse("request has no user field");
      return;
    }
    const auto cipher = base64_decode(*user_cipher);
    // PPROX-CT-OK(branch): base64 framing of adversary-chosen wire input.
    if (!cipher) {
      slot.status = Error::parse("field is not valid base64");
      return;
    }
    auto plain = crypto::rsa_decrypt_oaep(slot.logic->secrets_.sk, *cipher);
    if (!plain.ok()) {
      slot.status = plain.error();
      return;
    }
    if (plain.value().size() != kIdBlockSize) {
      slot.status = Error::crypto("decrypted identifier block has wrong size");
      return;
    }
    const SensitiveBlock<taint::UserDomain> block{std::move(plain.value())};
    slot.staged = staged.subspan(i * kIdBlockSize, kIdBlockSize);
    // PPROX-DECLASSIFY: det_enc under kUA is applied in phase 2; the staged
    // copy lives only in the arena, which the host wipes after the batch.
    const Bytes& raw = taint::declassify_for_pseudonymization(block);
    std::copy(raw.begin(), raw.end(), slot.staged.begin());
  });

  // Phase 2 — vectorized pseudonymize. The zero-IV keystream is message-
  // independent, so one keystream per tenant logic serves every block: this
  // is the 8-wide AES-NI CTR kernel running once per tenant per flush
  // instead of once per request.
  const UaLogic* keyed_for = nullptr;
  MutByteView ks{};
  for (UaBatchSlot& slot : slots) {
    if (!slot.status.ok()) continue;
    // PPROX-CT-OK(branch): tenant-routing identity of the slot, not secret
    // plaintext — which logic instance a request targets is adversary-visible
    // wire metadata; the staged block itself stays branch-free (XOR only).
    if (slot.logic != keyed_for) {
      ks = arena.alloc(kIdBlockSize);
      slot.logic->det_.keystream(ks);
      keyed_for = slot.logic;
    }
    xor_into(slot.staged, ks);
  }

  // Phase 3 — re-encode and splice the pseudonym back into each body.
  for (UaBatchSlot& slot : slots) {
    if (!slot.status.ok()) continue;
    json::replace_string_field(*slot.body, fields::kUser,
                               base64_encode(slot.staged));
  }
}

Result<PseudonymizedId> UaLogic::pseudonym_of(const UserId& user) const {
  auto block = pad_sensitive_id(user);
  if (!block.ok()) return block.error();
  // PPROX-DECLASSIFY: det_enc under kUA — the released value is the user's
  // LRS-facing pseudonym, which the protocol is designed to expose.
  return PseudonymizedId{base64_encode(
      det_.encrypt(taint::declassify_for_pseudonymization(block.value())))};
}

}  // namespace pprox
