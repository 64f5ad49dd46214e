// Batched enclave transitions (ROADMAP item 3): one ECALL per shuffle flush.
//
// Differential tests pin the batched entry points — UaLogic::transform_batch,
// IaLogic::transform_batch, IaLogic::seal_batch — bit-for-bit against S
// sequential per-request transforms, including per-slot error reporting and
// RNG consumption order. The suite runs on both crypto backends (plain and
// `_noaccel` ctest registrations), so the 8-wide AES kernels and the portable
// reference must agree through the batch path too. A full-deployment test
// then pins Enclave::transition_count() to exactly one transition per flush.
#include <gtest/gtest.h>

#include <future>
#include <span>
#include <string>
#include <vector>

#include "common/encoding.hpp"
#include "concurrent/thread_pool.hpp"
#include "crypto/ctr.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "json/json.hpp"
#include "lrs/harness.hpp"
#include "pprox/batch.hpp"
#include "pprox/client.hpp"
#include "pprox/deployment.hpp"
#include "pprox/logic.hpp"
#include "oracle.hpp"

namespace pprox {
namespace {

using namespace std::chrono_literals;

class BatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new crypto::Drbg(to_bytes("batch-test"));
    keys_ = new ApplicationKeys(ApplicationKeys::generate(*rng_));
    ua_ = new UaLogic(UaLogic::from_secrets(keys_->ua.serialize()).value());
    ia_ = new IaLogic(IaLogic::from_secrets(keys_->ia.serialize()).value());
    client_ = new ClientLibrary(keys_->client_params(), nullptr, rng_);
    keys2_ = new ApplicationKeys(ApplicationKeys::generate(*rng_));
    ua2_ = new UaLogic(UaLogic::from_secrets(keys2_->ua.serialize()).value());
    ia2_ = new IaLogic(IaLogic::from_secrets(keys2_->ia.serialize()).value());
    client2_ = new ClientLibrary(keys2_->client_params(), nullptr, rng_);
  }
  static void TearDownTestSuite() {
    delete client2_;
    delete ia2_;
    delete ua2_;
    delete keys2_;
    delete client_;
    delete ia_;
    delete ua_;
    delete keys_;
    delete rng_;
  }

  /// Deterministic pseudonym as the LRS would store it.
  static std::string pseudonym(const LayerSecrets& layer,
                               const std::string& id) {
    const crypto::DeterministicCipher det(layer.k);
    return base64_encode(det.encrypt(pad_identifier(id).value()));
  }

  /// An LRS get-response body listing `n` pseudonymized items.
  static std::string lrs_items_body(int n, const std::string& prefix) {
    json::JsonValue body{json::JsonObject{}};
    json::JsonArray items;
    for (int i = 0; i < n; ++i) {
      items.emplace_back(
          pseudonym(keys_->ia, prefix + "-" + std::to_string(i)));
    }
    body.set("items", std::move(items));
    return body.dump();
  }

  /// `body` with field `key` replaced by base64(RSA-OAEP(plain)) under `pk`.
  static std::string with_wrapped_field(std::string body, const char* key,
                                        const crypto::RsaPublicKey& pk,
                                        std::size_t plain_bytes) {
    const Bytes plain(plain_bytes, 0x5A);
    json::replace_string_field(
        body, key,
        base64_encode(crypto::rsa_encrypt_oaep(pk, plain, *rng_).value()));
    return body;
  }

  static std::string with_field(std::string body, const char* key,
                                const std::string& value) {
    json::replace_string_field(body, key, value);
    return body;
  }

  static crypto::Drbg* rng_;
  static ApplicationKeys* keys_;
  static UaLogic* ua_;
  static IaLogic* ia_;
  static ClientLibrary* client_;
  // A second tenant: mixed-tenant batches and cross-tenant OAEP rejects.
  static ApplicationKeys* keys2_;
  static UaLogic* ua2_;
  static IaLogic* ia2_;
  static ClientLibrary* client2_;
};

crypto::Drbg* BatchTest::rng_ = nullptr;
ApplicationKeys* BatchTest::keys_ = nullptr;
UaLogic* BatchTest::ua_ = nullptr;
IaLogic* BatchTest::ia_ = nullptr;
ClientLibrary* BatchTest::client_ = nullptr;
ApplicationKeys* BatchTest::keys2_ = nullptr;
UaLogic* BatchTest::ua2_ = nullptr;
IaLogic* BatchTest::ia2_ = nullptr;
ClientLibrary* BatchTest::client2_ = nullptr;

TEST_F(BatchTest, KeystreamMatchesZeroPlaintextEncryption) {
  // The batched paths XOR a cached zero-IV keystream instead of calling
  // encrypt/decrypt per message; the two must be the same bytes.
  const crypto::DeterministicCipher det(keys_->ua.k);
  Bytes ks(kIdBlockSize, 0xAA);
  det.keystream(MutByteView(ks.data(), ks.size()));
  EXPECT_EQ(ks, det.encrypt(Bytes(kIdBlockSize, 0)));
}

TEST_F(BatchTest, UaBatchMatchesSequentialBitForBit) {
  // Mixed batch: posts, gets, and two malformed bodies in the middle.
  std::vector<std::string> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(client_
                         ->build_post_request("user-" + std::to_string(i),
                                              "item-" + std::to_string(i))
                         .value()
                         .body);
  }
  inputs.push_back("{}");                          // no user field
  inputs.push_back(R"({"user":"not-base64!!!"})");  // undecodable field
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(
        client_->build_get_request("getter-" + std::to_string(i))
            .value()
            .request.body);
  }

  // Reference: S sequential single-request ecall bodies.
  std::vector<Result<std::string>> sequential;
  sequential.reserve(inputs.size());
  for (const auto& body : inputs) {
    sequential.push_back(oracle::ua_transform_request(keys_->ua, body));
  }

  // Batched: one transform_batch over copies of the same inputs.
  std::vector<std::string> bodies = inputs;
  std::vector<UaBatchSlot> slots;
  slots.reserve(bodies.size());
  for (auto& body : bodies) {
    slots.push_back({ua_, &body, {}, {}});
  }
  BatchArena arena(bodies.size() * kIdBlockSize + kIdBlockSize);
  UaLogic::transform_batch(std::span<UaBatchSlot>(slots), arena);

  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (sequential[i].ok()) {
      ASSERT_TRUE(slots[i].status.ok()) << "slot " << i;
      EXPECT_EQ(bodies[i], sequential[i].value()) << "slot " << i;
    } else {
      ASSERT_FALSE(slots[i].status.ok()) << "slot " << i;
      EXPECT_EQ(slots[i].status.error().message,
                sequential[i].error().message)
          << "slot " << i;
      EXPECT_EQ(bodies[i], inputs[i]) << "failed slot must not mutate body";
    }
  }

  // The arena is reusable: the same batch after wipe_and_reset produces the
  // same bytes again (per-proxy scratch is recycled across flushes).
  arena.wipe_and_reset();
  std::vector<std::string> again = inputs;
  std::vector<UaBatchSlot> slots2;
  for (auto& body : again) {
    slots2.push_back({ua_, &body, {}, {}});
  }
  UaLogic::transform_batch(std::span<UaBatchSlot>(slots2), arena);
  EXPECT_EQ(again, bodies);
}

TEST_F(BatchTest, UaBatchEmptyAndSingleSlot) {
  BatchArena arena(kIdBlockSize * 2);
  UaLogic::transform_batch({}, arena);  // no slots: no work, no crash

  std::string body = client_->build_post_request("solo", "item").value().body;
  const auto expected = oracle::ua_transform_request(keys_->ua, body);
  std::vector<UaBatchSlot> slots{{ua_, &body, {}, {}}};
  UaLogic::transform_batch(std::span<UaBatchSlot>(slots), arena);
  ASSERT_TRUE(slots[0].status.ok());
  EXPECT_EQ(body, expected.value());
}

TEST_F(BatchTest, IaRequestBatchMatchesSequentialBitForBit) {
  // Posts (both pseudonymization modes), gets, and a malformed body.
  struct Case {
    std::string body;
    bool is_get;
    bool pseudonymize;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 2; ++i) {
    cases.push_back({client_
                         ->build_post_request("u" + std::to_string(i),
                                              "i" + std::to_string(i))
                         .value()
                         .body,
                     false, true});
  }
  cases.push_back(
      {client_->build_post_request("u-opt", "i-opt").value().body, false,
       false});  // §6.3 opt-out slot mixed into the batch
  cases.push_back({"{}", false, true});  // malformed post
  std::vector<Bytes> expected_k_u;
  for (int i = 0; i < 3; ++i) {
    auto call = client_->build_get_request("g" + std::to_string(i));
    expected_k_u.push_back(call.value().k_u);
    cases.push_back({call.value().request.body, true, true});
  }

  // Reference: sequential transforms.
  std::vector<Result<std::string>> seq_bodies;
  std::vector<Bytes> seq_k_u(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].is_get) {
      auto r = ia_->transform_get_request(cases[i].body);
      if (r.ok()) {
        seq_k_u[i] = r.value().k_u;
        seq_bodies.emplace_back(std::move(r.value().body));
      } else {
        seq_bodies.emplace_back(r.error());
      }
    } else {
      seq_bodies.push_back(
          ia_->transform_post_request(cases[i].body, cases[i].pseudonymize));
    }
  }

  // Batched: one transform_batch over the same inputs.
  std::vector<std::string> bodies;
  for (const auto& c : cases) bodies.push_back(c.body);
  std::vector<IaRequestSlot> slots;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    slots.push_back(
        {ia_, &bodies[i], cases[i].is_get, cases[i].pseudonymize, {}, {}});
  }
  BatchArena arena(4096);
  IaLogic::transform_batch(std::span<IaRequestSlot>(slots), arena);

  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (seq_bodies[i].ok()) {
      ASSERT_TRUE(slots[i].status.ok()) << "slot " << i;
      EXPECT_EQ(bodies[i], seq_bodies[i].value()) << "slot " << i;
      EXPECT_EQ(slots[i].k_u, seq_k_u[i]) << "slot " << i;
    } else {
      ASSERT_FALSE(slots[i].status.ok()) << "slot " << i;
      EXPECT_EQ(slots[i].status.error().message,
                seq_bodies[i].error().message)
          << "slot " << i;
    }
  }
  // Recovered keys match what the client generated.
  EXPECT_EQ(slots[4].k_u, expected_k_u[0]);
  EXPECT_EQ(slots[5].k_u, expected_k_u[1]);
  EXPECT_EQ(slots[6].k_u, expected_k_u[2]);
}

TEST_F(BatchTest, SealBatchMatchesSequentialBitForBit) {
  for (const bool authenticated : {false, true}) {
    SCOPED_TRACE(authenticated ? "gcm" : "ctr");
    // Responses of different lengths (1, 20 = already full, 3 items), one
    // malformed body in the middle, plus an empty list (unknown user).
    std::vector<std::string> lrs_bodies;
    std::vector<Bytes> keys;
    std::vector<int> item_counts{1, 20, 3, 0};
    for (std::size_t i = 0; i < item_counts.size(); ++i) {
      lrs_bodies.push_back(lrs_items_body(
          item_counts[i], "m" + std::to_string(i)));
      keys.push_back(
          client_->build_get_request("s" + std::to_string(i)).value().k_u);
    }
    // Malformed slot: framing error, consumes no randomness on either path.
    lrs_bodies.insert(lrs_bodies.begin() + 2, R"({"items":"nope"})");
    keys.insert(keys.begin() + 2, Bytes(32, 7));

    // Reference: sequential seals against a deterministic source.
    crypto::Drbg seq_rng(to_bytes("seal-differential"));
    std::vector<Result<std::string>> sequential;
    for (std::size_t i = 0; i < lrs_bodies.size(); ++i) {
      sequential.push_back(oracle::ia_transform_get_response(
          keys_->ia, lrs_bodies[i], ByteView(keys[i]), seq_rng, authenticated));
    }

    // Batched: one seal_batch against an equally-seeded source. Bit-for-bit
    // equality requires rng draws in slot order, successful slots only.
    crypto::Drbg batch_rng(to_bytes("seal-differential"));
    std::vector<IaSealSlot> slots;
    for (std::size_t i = 0; i < lrs_bodies.size(); ++i) {
      IaSealSlot slot;
      slot.logic = ia_;
      slot.lrs_body = &lrs_bodies[i];
      slot.k_u = ByteView(keys[i]);
      slot.authenticated = authenticated;
      slots.push_back(std::move(slot));
    }
    BatchArena arena(64 * kIdBlockSize);
    IaLogic::seal_batch(std::span<IaSealSlot>(slots), batch_rng, arena);

    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (sequential[i].ok()) {
        ASSERT_TRUE(slots[i].status.ok()) << "slot " << i;
        EXPECT_EQ(slots[i].sealed, sequential[i].value()) << "slot " << i;
      } else {
        ASSERT_FALSE(slots[i].status.ok()) << "slot " << i;
        EXPECT_EQ(slots[i].status.error().message,
                  sequential[i].error().message)
            << "slot " << i;
      }
    }

    // Sanity: the batched ciphertext decrypts to the original plaintext ids.
    const http::HttpResponse resp =
        http::HttpResponse::json_response(200, slots[0].sealed);
    const auto decoded =
        ClientLibrary::decode_get_response(resp, keys[0]);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), (std::vector<std::string>{"m0-0"}));
  }
}

// The fan-out differentials: the same batch through a 4-thread runner (the
// caller plus three pool helpers) and through the sequential default must
// produce identical bodies, keys and error strings, slot for slot. Mixed
// tenants, gets and posts with and without payload, and every failing-slot
// class share one batch; several rounds vary the claim interleaving.
TEST_F(BatchTest, UaFanOutMatchesSequentialBitForBit) {
  const crypto::RsaPublicKey& pk_ua = keys_->client_params().pk_ua;
  struct Case {
    const UaLogic* logic;
    std::string body;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 4; ++i) {
    ClientLibrary& client = i % 2 == 0 ? *client_ : *client2_;
    const UaLogic* logic = i % 2 == 0 ? ua_ : ua2_;
    const std::string u = "fan-user-" + std::to_string(i);
    cases.push_back({logic, client.build_post_request(u, "it").value().body});
    cases.push_back(
        {logic, client.build_post_request(u, "it", "4").value().body});
    cases.push_back({logic, client.build_get_request(u).value().request.body});
  }
  const std::string post = client_->build_post_request("f", "i").value().body;
  cases.push_back({ua_, "{}"});                                 // missing field
  cases.push_back({ua_, with_field(post, "user", "not-b64!!")});  // bad base64
  cases.push_back({ua2_, post});                   // OAEP reject: other tenant
  cases.push_back({ua_, with_wrapped_field(post, "user", pk_ua, 10)});  // size

  // Reference: the per-request transforms.
  std::vector<Result<std::string>> expected;
  for (const Case& c : cases) {
    expected.push_back(oracle::ua_transform_request(
        c.logic == ua_ ? keys_->ua : keys2_->ua, c.body));
  }

  concurrent::ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    for (const bool fan_out : {false, true}) {
      std::vector<std::string> bodies;
      for (const Case& c : cases) bodies.push_back(c.body);
      std::vector<UaBatchSlot> slots;
      for (std::size_t i = 0; i < cases.size(); ++i) {
        slots.push_back({cases[i].logic, &bodies[i], {}, {}});
      }
      BatchArena arena(4096);
      if (fan_out) {
        UaLogic::transform_batch(std::span<UaBatchSlot>(slots), arena,
                                 concurrent::FanOut(pool));
      } else {
        UaLogic::transform_batch(std::span<UaBatchSlot>(slots), arena);
      }
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (expected[i].ok()) {
          ASSERT_TRUE(slots[i].status.ok()) << "slot " << i;
          EXPECT_EQ(bodies[i], expected[i].value()) << "slot " << i;
        } else {
          ASSERT_FALSE(slots[i].status.ok()) << "slot " << i;
          EXPECT_EQ(slots[i].status.error().message,
                    expected[i].error().message)
              << "slot " << i;
          EXPECT_EQ(bodies[i], cases[i].body) << "failed slot mutated body";
        }
      }
    }
  }
  // Every failing class is represented, and the good slots succeeded.
  for (std::size_t i = 0; i < 12; ++i) EXPECT_TRUE(expected[i].ok()) << i;
  for (std::size_t i = 12; i < cases.size(); ++i) {
    EXPECT_FALSE(expected[i].ok()) << i;
  }
}

TEST_F(BatchTest, IaFanOutMatchesSequentialBitForBit) {
  const crypto::RsaPublicKey& pk_ia = keys_->client_params().pk_ia;
  struct Case {
    const IaLogic* logic;
    std::string body;
    bool is_get;
    bool pseudonymize;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 4; ++i) {
    ClientLibrary& client = i % 2 == 0 ? *client_ : *client2_;
    const IaLogic* logic = i % 2 == 0 ? ia_ : ia2_;
    const std::string u = "fan-user-" + std::to_string(i);
    const std::string item = "fan-item-" + std::to_string(i);
    cases.push_back(
        {logic, client.build_post_request(u, item).value().body, false, true});
    cases.push_back({logic, client.build_post_request(u, item, "5").value().body,
                     false, true});
    cases.push_back({logic, client.build_post_request(u, item, "3").value().body,
                     false, false});  // §6.3 opt-out with payload
    cases.push_back(
        {logic, client.build_get_request(u).value().request.body, true, true});
  }
  const std::string post =
      client_->build_post_request("f", "i", "2").value().body;
  const std::string get = client_->build_get_request("f").value().request.body;
  cases.push_back({ia_, "{}", false, true});  // post: missing item field
  cases.push_back({ia_, "{}", true, true});   // get: missing key field
  cases.push_back({ia_, with_field(post, "item", "not-b64!!"), false, true});
  cases.push_back({ia_, with_field(post, "payload", "not-b64!!"), false, true});
  cases.push_back({ia_, with_field(get, "k", "not-b64!!"), true, true});
  cases.push_back({ia2_, post, false, true});  // OAEP reject: other tenant
  cases.push_back({ia2_, get, true, true});    // OAEP reject on k_u
  cases.push_back(
      {ia_, with_wrapped_field(post, "item", pk_ia, 10), false, true});  // size
  cases.push_back(
      {ia_, with_wrapped_field(get, "k", pk_ia, 16), true, true});  // k_u length

  // Reference: the per-request transforms.
  std::vector<Result<std::string>> expected;
  std::vector<Bytes> expected_k_u(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    if (c.is_get) {
      auto r = c.logic->transform_get_request(c.body);
      if (r.ok()) {
        expected_k_u[i] = r.value().k_u;
        expected.emplace_back(std::move(r.value().body));
      } else {
        expected.emplace_back(r.error());
      }
    } else {
      expected.push_back(c.logic->transform_post_request(c.body, c.pseudonymize));
    }
  }

  concurrent::ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    for (const bool fan_out : {false, true}) {
      std::vector<std::string> bodies;
      for (const Case& c : cases) bodies.push_back(c.body);
      std::vector<IaRequestSlot> slots;
      for (std::size_t i = 0; i < cases.size(); ++i) {
        slots.push_back({cases[i].logic, &bodies[i], cases[i].is_get,
                         cases[i].pseudonymize, {}, {}});
      }
      BatchArena arena(4096);
      if (fan_out) {
        IaLogic::transform_batch(std::span<IaRequestSlot>(slots), arena,
                                 concurrent::FanOut(pool));
      } else {
        IaLogic::transform_batch(std::span<IaRequestSlot>(slots), arena);
      }
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (expected[i].ok()) {
          ASSERT_TRUE(slots[i].status.ok()) << "slot " << i;
          EXPECT_EQ(bodies[i], expected[i].value()) << "slot " << i;
          EXPECT_EQ(slots[i].k_u, expected_k_u[i]) << "slot " << i;
        } else {
          ASSERT_FALSE(slots[i].status.ok()) << "slot " << i;
          EXPECT_EQ(slots[i].status.error().message,
                    expected[i].error().message)
              << "slot " << i;
          EXPECT_TRUE(slots[i].k_u.empty()) << "slot " << i;
        }
      }
    }
  }
  for (std::size_t i = 0; i < 16; ++i) EXPECT_TRUE(expected[i].ok()) << i;
  for (std::size_t i = 16; i < cases.size(); ++i) {
    EXPECT_FALSE(expected[i].ok()) << i;
  }
}

TEST_F(BatchTest, ArenaOverflowKeepsEarlierViewsValid) {
  // A batch larger than the reservation must still be correct: overflow
  // allocations come from fresh chunks, never invalidating staged blocks.
  std::vector<std::string> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(
        client_->build_post_request("ov-" + std::to_string(i), "x")
            .value()
            .body);
  }
  std::vector<Result<std::string>> sequential;
  for (const auto& body : inputs) {
    sequential.push_back(oracle::ua_transform_request(keys_->ua, body));
  }
  std::vector<std::string> bodies = inputs;
  std::vector<UaBatchSlot> slots;
  for (auto& body : bodies) slots.push_back({ua_, &body, {}, {}});
  BatchArena tiny(kIdBlockSize);  // room for one block; rest overflows
  UaLogic::transform_batch(std::span<UaBatchSlot>(slots), tiny);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_TRUE(slots[i].status.ok()) << "slot " << i;
    EXPECT_EQ(bodies[i], sequential[i].value()) << "slot " << i;
  }
  tiny.wipe_and_reset();
  EXPECT_EQ(tiny.used(), 0u);
}

// A full buffer of posts, then of gets, through a deployment whose proxies
// run `workers` enclave worker threads: the flush's unwraps fan out across
// them, yet the transition count moves exactly once per flush.
void expect_one_ecall_per_flush(std::size_t workers) {
  crypto::Drbg rng(to_bytes("batch-transitions"));
  lrs::HarnessServer lrs;
  DeploymentConfig config;
  config.shuffle_size = 4;
  config.shuffle_timeout = 10s;  // size-triggered flushes only
  config.worker_threads = workers;
  Deployment deployment(config, lrs, rng);
  ClientLibrary client = deployment.make_client(&rng);

  const enclave::Enclave& ua = deployment.ua_proxy(0).hosted_enclave();
  const enclave::Enclave& ia = deployment.ia_proxy(0).hosted_enclave();
  const std::uint64_t ua0 = ua.transition_count();
  const std::uint64_t ia0 = ia.transition_count();

  // One buffer's worth of posts: exactly one UA request flush and one IA
  // request flush. Post responses traverse the IA response shuffle as
  // passthrough items — no seal, so no third ecall.
  std::vector<std::promise<Status>> post_done(4);
  std::vector<std::future<Status>> post_futures;
  for (std::size_t i = 0; i < post_done.size(); ++i) {
    post_futures.push_back(post_done[i].get_future());
    std::promise<Status>* p = &post_done[i];
    client.post("user-" + std::to_string(i), "item-" + std::to_string(i),
                [p](Status s) { p->set_value(std::move(s)); });
  }
  for (auto& f : post_futures) {
    ASSERT_TRUE(f.get().ok());
  }
  EXPECT_EQ(ua.transition_count() - ua0, 1u);
  EXPECT_EQ(ia.transition_count() - ia0, 1u);

  // One buffer's worth of gets: one UA request flush, one IA request flush,
  // and one IA seal flush for the four LRS responses — 1 and 2 transitions.
  const std::uint64_t ua1 = ua.transition_count();
  const std::uint64_t ia1 = ia.transition_count();
  using GetResult = Result<std::vector<std::string>>;
  std::vector<std::promise<GetResult>> get_done(4);
  std::vector<std::future<GetResult>> get_futures;
  for (std::size_t i = 0; i < get_done.size(); ++i) {
    get_futures.push_back(get_done[i].get_future());
    std::promise<GetResult>* p = &get_done[i];
    client.get("user-" + std::to_string(i),
               [p](GetResult r) { p->set_value(std::move(r)); });
  }
  for (auto& f : get_futures) {
    ASSERT_TRUE(f.get().ok());
  }
  EXPECT_EQ(ua.transition_count() - ua1, 1u);
  EXPECT_EQ(ia.transition_count() - ia1, 2u);
}

TEST(BatchTransitions, ExactlyOneEcallPerFlush) { expect_one_ecall_per_flush(2); }

TEST(BatchTransitions, ExactlyOneEcallPerFlushFourWorkers) {
  expect_one_ecall_per_flush(4);
}

}  // namespace
}  // namespace pprox
