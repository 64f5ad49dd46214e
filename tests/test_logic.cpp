// UA/IA enclave logic: the end-to-end message lifecycles of Figures 3 and 4,
// checked transform by transform against the paper's protocol.
#include <gtest/gtest.h>

#include "common/encoding.hpp"
#include "crypto/ctr.hpp"
#include "crypto/drbg.hpp"
#include "json/json.hpp"
#include "pprox/client.hpp"
#include "pprox/logic.hpp"
#include "oracle.hpp"

namespace pprox {
namespace {

class LogicTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new crypto::Drbg(to_bytes("logic-test"));
    keys_ = new ApplicationKeys(ApplicationKeys::generate(*rng_));
    ua_ = new UaLogic(UaLogic::from_secrets(keys_->ua.serialize()).value());
    ia_ = new IaLogic(IaLogic::from_secrets(keys_->ia.serialize()).value());
    client_ = new ClientLibrary(keys_->client_params(), nullptr, rng_);
  }
  static void TearDownTestSuite() {
    delete client_;
    delete ia_;
    delete ua_;
    delete keys_;
    delete rng_;
  }

  /// Deterministic pseudonym as the LRS would store it.
  static std::string pseudonym(const LayerSecrets& layer, const std::string& id) {
    const crypto::DeterministicCipher det(layer.k);
    return base64_encode(det.encrypt(pad_identifier(id).value()));
  }

  static crypto::Drbg* rng_;
  static ApplicationKeys* keys_;
  static UaLogic* ua_;
  static IaLogic* ia_;
  static ClientLibrary* client_;
};

crypto::Drbg* LogicTest::rng_ = nullptr;
ApplicationKeys* LogicTest::keys_ = nullptr;
UaLogic* LogicTest::ua_ = nullptr;
IaLogic* LogicTest::ia_ = nullptr;
ClientLibrary* LogicTest::client_ = nullptr;

TEST_F(LogicTest, PostLifecycleFigure3) {
  // Client: post(u, i) -> post(enc(u,pkUA), enc(i,pkIA)).
  const auto request = client_->build_post_request("alice", "movie-7");
  ASSERT_TRUE(request.ok());
  const std::string& body0 = request.value().body;
  // Neither identifier appears in the clear.
  EXPECT_EQ(body0.find("alice"), std::string::npos);
  EXPECT_EQ(body0.find("movie-7"), std::string::npos);

  // UA: -> post(det_enc(u,kUA), enc(i,pkIA)).
  const auto body1 = oracle::ua_transform_request(keys_->ua, body0);
  ASSERT_TRUE(body1.ok());
  EXPECT_EQ(*json::get_string_field(body1.value(), "user"),
            pseudonym(keys_->ua, "alice"));
  // Item ciphertext untouched by UA.
  EXPECT_EQ(*json::get_string_field(body1.value(), "item"),
            *json::get_string_field(body0, "item"));

  // IA: -> post(det_enc(u,kUA), det_enc(i,kIA)).
  const auto body2 = ia_->transform_post_request(body1.value());
  ASSERT_TRUE(body2.ok());
  EXPECT_EQ(*json::get_string_field(body2.value(), "user"),
            pseudonym(keys_->ua, "alice"));
  EXPECT_EQ(*json::get_string_field(body2.value(), "item"),
            pseudonym(keys_->ia, "movie-7"));
  EXPECT_EQ(body2.value().find("alice"), std::string::npos);
  EXPECT_EQ(body2.value().find("movie-7"), std::string::npos);
}

TEST_F(LogicTest, PseudonymsAreStableAcrossRequests) {
  // Two posts by the same user must map to the same LRS pseudonym even
  // though the client-side ciphertexts differ (randomized encryption).
  const auto r1 = client_->build_post_request("bob", "x");
  const auto r2 = client_->build_post_request("bob", "y");
  EXPECT_NE(*json::get_string_field(r1.value().body, "user"),
            *json::get_string_field(r2.value().body, "user"));
  const auto t1 = oracle::ua_transform_request(keys_->ua, r1.value().body);
  const auto t2 = oracle::ua_transform_request(keys_->ua, r2.value().body);
  EXPECT_EQ(*json::get_string_field(t1.value(), "user"),
            *json::get_string_field(t2.value(), "user"));
}

TEST_F(LogicTest, GetLifecycleFigure4) {
  // Client: get(u) -> get(enc(u,pkUA), enc(k_u,pkIA)).
  auto call = client_->build_get_request("carol");
  ASSERT_TRUE(call.ok());
  const Bytes k_u = call.value().k_u;
  EXPECT_EQ(k_u.size(), 32u);
  const std::string& body0 = call.value().request.body;
  EXPECT_EQ(body0.find("carol"), std::string::npos);

  // UA: pseudonymize user; k field untouched.
  const auto body1 = oracle::ua_transform_request(keys_->ua, body0);
  ASSERT_TRUE(body1.ok());
  EXPECT_EQ(*json::get_string_field(body1.value(), "user"),
            pseudonym(keys_->ua, "carol"));
  EXPECT_EQ(*json::get_string_field(body1.value(), "k"),
            *json::get_string_field(body0, "k"));

  // IA: recover k_u, strip it from the LRS-bound call.
  auto get_req = ia_->transform_get_request(body1.value());
  ASSERT_TRUE(get_req.ok());
  EXPECT_EQ(get_req.value().k_u, k_u);
  EXPECT_EQ(*json::get_string_field(get_req.value().body, "k"), "");
  EXPECT_EQ(*json::get_string_field(get_req.value().body, "user"),
            pseudonym(keys_->ua, "carol"));

  // LRS answers with pseudonymized items.
  json::JsonValue lrs_body{json::JsonObject{}};
  json::JsonArray items;
  items.emplace_back(pseudonym(keys_->ia, "movie-1"));
  items.emplace_back(pseudonym(keys_->ia, "movie-2"));
  lrs_body.set("items", std::move(items));

  // IA response: de-pseudonymize, pad, encrypt under k_u.
  const auto response =
      oracle::ia_transform_get_response(keys_->ia, lrs_body.dump(), k_u, *rng_);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().find("movie-1"), std::string::npos);  // hidden

  // The UA passes the response through unchanged; the client decrypts it
  // and strips the padding.
  http::HttpResponse http_resp =
      http::HttpResponse::json_response(200, response.value());
  const auto decoded = ClientLibrary::decode_get_response(http_resp, k_u);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(),
            (std::vector<std::string>{"movie-1", "movie-2"}));
}

TEST_F(LogicTest, GetResponsesAreConstantSize) {
  auto call = client_->build_get_request("dave");
  const Bytes& k_u = call.value().k_u;
  json::JsonValue one{json::JsonObject{}};
  json::JsonArray items1;
  items1.emplace_back(pseudonym(keys_->ia, "a"));
  one.set("items", std::move(items1));
  json::JsonValue many{json::JsonObject{}};
  json::JsonArray items2;
  for (int i = 0; i < 20; ++i) {
    items2.emplace_back(pseudonym(keys_->ia, "item-" + std::to_string(i)));
  }
  many.set("items", std::move(items2));

  const auto r1 =
      oracle::ia_transform_get_response(keys_->ia, one.dump(), k_u, *rng_);
  const auto r2 =
      oracle::ia_transform_get_response(keys_->ia, many.dump(), k_u, *rng_);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().size(), r2.value().size());
}

TEST_F(LogicTest, ItemPseudonymizationOptOut) {
  // §6.3: disabled pseudonymization forwards the item in the clear.
  const auto request = client_->build_post_request("erin", "movie-9");
  const auto body1 =
      oracle::ua_transform_request(keys_->ua, request.value().body);
  const auto body2 = ia_->transform_post_request(body1.value(), false);
  ASSERT_TRUE(body2.ok());
  EXPECT_EQ(*json::get_string_field(body2.value(), "item"), "movie-9");
  // The user remains pseudonymized either way.
  EXPECT_EQ(body2.value().find("erin"), std::string::npos);
}

TEST_F(LogicTest, WrongLayerKeysCannotDecrypt) {
  // A post encrypted for *this* application fails under another app's keys
  // (no cross-tenant decryption).
  crypto::Drbg rng2(to_bytes("other-app"));
  const ApplicationKeys other = ApplicationKeys::generate(rng2);
  const auto request = client_->build_post_request("frank", "m");
  EXPECT_FALSE(
      oracle::ua_transform_request(other.ua, request.value().body).ok());
}

TEST_F(LogicTest, MalformedBodiesRejected) {
  EXPECT_FALSE(oracle::ua_transform_request(keys_->ua, "{}").ok());
  EXPECT_FALSE(
      oracle::ua_transform_request(keys_->ua, R"({"user":"not-base64!!!"})")
          .ok());
  EXPECT_FALSE(ia_->transform_post_request("{}").ok());
  EXPECT_FALSE(ia_->transform_get_request(R"({"user":"x"})").ok());
  EXPECT_FALSE(oracle::ia_transform_get_response(keys_->ia, "not json",
                                                 Bytes(32, 1), *rng_)
                   .ok());
  EXPECT_FALSE(oracle::ia_transform_get_response(
                   keys_->ia, R"({"items":"nope"})", Bytes(32, 1), *rng_)
                   .ok());
}

TEST_F(LogicTest, TamperedCiphertextRejected) {
  auto request = client_->build_post_request("gina", "m");
  std::string body = request.value().body;
  // Flip one character inside the user ciphertext: OAEP must reject it.
  const auto span = json::find_string_field(body, "user");
  ASSERT_TRUE(span.has_value());
  body[span->first + 10] = body[span->first + 10] == 'A' ? 'B' : 'A';
  EXPECT_FALSE(oracle::ua_transform_request(keys_->ua, body).ok());
}

TEST_F(LogicTest, FromSecretsRejectsGarbage) {
  EXPECT_FALSE(UaLogic::from_secrets(Bytes(5, 1)).ok());
  EXPECT_FALSE(IaLogic::from_secrets(Bytes{}).ok());
}

TEST_F(LogicTest, DePseudonymizeItemInverse) {
  const std::string p = pseudonym(keys_->ia, "movie-42");
  const auto back = ia_->de_pseudonymize_item(p);
  ASSERT_TRUE(back.ok());
  // The result is ItemDomain-tainted; only the test escape hatch reads it.
  EXPECT_EQ(taint::declassify_for_test(back.value()), "movie-42");
  EXPECT_FALSE(ia_->de_pseudonymize_item("@@@").ok());
  EXPECT_FALSE(ia_->de_pseudonymize_item("c2hvcnQ=").ok());  // wrong size
}

TEST_F(LogicTest, TypedUaPseudonymMatchesWireTransform) {
  // The typed UA entry point and the wire-level transform must agree.
  const auto typed = ua_->pseudonym_of(UserId{"alice"});
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed.value().wire(), pseudonym(keys_->ua, "alice"));
  // Oversized ids are rejected, not truncated.
  EXPECT_FALSE(ua_->pseudonym_of(UserId{std::string(4096, 'x')}).ok());
}

}  // namespace
}  // namespace pprox
