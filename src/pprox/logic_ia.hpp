// PPROX-LAYER: ia
//
// Item-Anonymizer enclave code (paper §4.2). The IA sees item identifiers
// in the clear — and never the user: the user field reaches it already
// pseudonymized by the UA, and no user-plaintext API may be referenced from
// this translation unit (`pprox_lint --flow` fails the build if one is).
//
//  post request:  enc(i,pkIA) -> det_enc(i,kIA)
//  get request:   extract k_u = dec(enc(k_u,pkIA)); strip it from the call
//  get response:  det_enc(i_x,kIA) list -> pad to 20 -> enc(list, k_u)
#pragma once

#include <span>
#include <string>

#include "common/rand.hpp"
#include "common/result.hpp"
#include "concurrent/thread_pool.hpp"
#include "crypto/ctr.hpp"
#include "pprox/batch.hpp"
#include "pprox/keys.hpp"
#include "pprox/message.hpp"

namespace pprox {

class IaLogic;

/// One pending request inside a batched IA ecall. The host fills the inputs
/// (`logic`, `body`, `is_get`, `pseudonymize_items`); the enclave rewrites
/// `body` in place, deposits the recovered temporary key in `k_u` for gets,
/// and reports per-slot success in `status`.
struct IaRequestSlot {
  const IaLogic* logic = nullptr;
  std::string* body = nullptr;
  bool is_get = false;
  bool pseudonymize_items = true;
  Bytes k_u;  ///< out: per-request response key (gets only); key material.
  Status status;
};

/// One pending LRS response inside a batched IA seal ecall. `blocks` and
/// `item_count` are enclave-internal arena scratch — hosts must not touch
/// them.
struct IaSealSlot {
  const IaLogic* logic = nullptr;
  const std::string* lrs_body = nullptr;
  ByteView k_u{};
  bool authenticated = false;
  std::string sealed;  ///< out: constant-size k_u-ciphertext JSON envelope.
  Status status;
  MutByteView blocks{};
  std::size_t item_count = 0;
};

/// Item-Anonymizer enclave code.
class IaLogic {
 public:
  static Result<IaLogic> from_secrets(ByteView secrets_blob);

  /// post: pseudonymizes the "item" field and decrypts the optional payload
  /// for the LRS. `pseudonymize_items = false` implements the §6.3 opt-out
  /// (item sent in the clear to the LRS). Runs inside the batch ecall.
  Result<std::string> transform_post_request(
      std::string body, bool pseudonymize_items = true) const;

  struct GetRequest {
    std::string body;  ///< forwarded to the LRS (temporary key stripped)
    Bytes k_u;         ///< per-request response key, kept in the EPC store
  };
  /// get: recovers k_u and strips it from the forwarded call.
  Result<GetRequest> transform_get_request(std::string body) const;

  /// Batched request transform: runs transform_post_request /
  /// transform_get_request over every slot inside ONE ecall, so the
  /// simulated transition cost is paid once per flush instead of once per
  /// request. Per-slot failures land in slot.status; other slots complete.
  /// Each slot's unwrap runs as one index on `fan_out`; the default runs
  /// every slot on the calling thread, in order.
  static void transform_batch(std::span<IaRequestSlot> slots,
                              BatchArena& arena,
                              const concurrent::FanOut& fan_out = {});

  /// get responses: de-pseudonymizes every slot's LRS item list, pads it to
  /// the constant length, and re-encrypts it under the slot's k_u for the
  /// client, inside ONE ecall. `authenticated` selects AES-GCM
  /// (tamper-evident, +28 bytes) instead of the paper's plain AES-CTR; the
  /// response self-describes its mode. Pseudonym blocks are gathered
  /// contiguously in `arena` and the zero-IV CTR keystream is computed once
  /// per distinct tenant logic, then XORed across all of that tenant's
  /// blocks (det decrypt, vectorized). `rng` is consumed in slot order by
  /// successful seals only — bit-for-bit identical to S per-request seals
  /// against an equally-seeded source (the oracle in tests/oracle.hpp). The
  /// caller owns wiping `arena` after results are copied out.
  static void seal_batch(std::span<IaSealSlot> slots, RandomSource& rng,
                         BatchArena& arena);

  /// Decrypts one pseudonymized item id. The result is item-domain tainted:
  /// callers must either keep it wrapped (the get-response path re-encrypts
  /// it under k_u) or declassify explicitly (the security tests that model
  /// an adversary holding stolen IA secrets use declassify_for_test).
  Result<ItemId> de_pseudonymize_item(std::string_view base64_cipher) const;

 private:
  explicit IaLogic(LayerSecrets secrets);
  /// Decrypts a base64 RSA field into the padded item-domain plaintext block.
  Result<SensitiveBlock<taint::ItemDomain>> decrypt_item_block(
      std::string_view base64_cipher) const;
  /// Decrypts the base64 RSA field carrying the temporary key k_u. Key
  /// material, not an identifier: it stays raw Bytes and lives in the EPC.
  Result<Bytes> decrypt_key_field(std::string_view base64_cipher) const;

  LayerSecrets secrets_;
  crypto::DeterministicCipher det_;
};

}  // namespace pprox
