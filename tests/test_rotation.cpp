// Breach response: performance-based attack detection and key rotation with
// LRS database re-encryption (paper §3 footnote 1).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "attack/adversary.hpp"
#include "crypto/drbg.hpp"
#include "pprox/deployment.hpp"
#include "pprox/rotation.hpp"

namespace pprox {
namespace {

TEST(BreachMonitor, NoAlarmOnStableLatency) {
  BreachMonitor monitor(2.0, 16, 8);
  for (int i = 0; i < 100; ++i) monitor.record("ua-0", 1.0 + 0.05 * (i % 3));
  EXPECT_FALSE(monitor.attack_suspected("ua-0"));
  EXPECT_NEAR(monitor.baseline_ms("ua-0"), 1.05, 0.1);
}

TEST(BreachMonitor, AlarmsOnSideChannelDegradation) {
  BreachMonitor monitor(2.0, 16, 8);
  for (int i = 0; i < 16; ++i) monitor.record("ua-0", 1.0);
  EXPECT_FALSE(monitor.attack_suspected("ua-0"));
  // A cache-priming attack makes every ecall several times slower
  // (paper §2.3: "making enclave performance drop significantly").
  for (int i = 0; i < 8; ++i) monitor.record("ua-0", 5.0);
  EXPECT_TRUE(monitor.attack_suspected("ua-0"));
}

TEST(BreachMonitor, NeedsBaselineBeforeAlarming) {
  BreachMonitor monitor(2.0, 16, 8);
  for (int i = 0; i < 10; ++i) monitor.record("ua-0", 100.0);  // no baseline yet
  EXPECT_FALSE(monitor.attack_suspected("ua-0"));
  EXPECT_EQ(monitor.baseline_ms("ua-0"), 0);
}

TEST(BreachMonitor, NeedsFullRecentWindow) {
  BreachMonitor monitor(2.0, 16, 8);
  for (int i = 0; i < 16; ++i) monitor.record("ua-0", 1.0);
  for (int i = 0; i < 3; ++i) monitor.record("ua-0", 50.0);  // window not full
  EXPECT_FALSE(monitor.attack_suspected("ua-0"));
}

TEST(BreachMonitor, TracksEnclavesIndependently) {
  BreachMonitor monitor(2.0, 4, 4);
  for (int i = 0; i < 4; ++i) {
    monitor.record("ua-0", 1.0);
    monitor.record("ia-0", 1.0);
  }
  for (int i = 0; i < 4; ++i) monitor.record("ia-0", 10.0);
  EXPECT_FALSE(monitor.attack_suspected("ua-0"));
  EXPECT_TRUE(monitor.attack_suspected("ia-0"));
  EXPECT_FALSE(monitor.attack_suspected("unknown"));
}

TEST(BreachMonitor, RecoversWhenAttackStops) {
  BreachMonitor monitor(2.0, 8, 4);
  for (int i = 0; i < 8; ++i) monitor.record("e", 1.0);
  for (int i = 0; i < 4; ++i) monitor.record("e", 10.0);
  EXPECT_TRUE(monitor.attack_suspected("e"));
  for (int i = 0; i < 4; ++i) monitor.record("e", 1.0);  // window refills
  EXPECT_FALSE(monitor.attack_suspected("e"));
}

class RotationTest : public ::testing::Test {
 protected:
  RotationTest()
      : rng_(to_bytes("rotation-test")),
        deployment_(DeploymentConfig{}, lrs_, rng_),
        client_(deployment_.make_client(&rng_)) {
    for (const auto& [u, i, p] :
         std::vector<std::tuple<std::string, std::string, std::string>>{
             {"u1", "A", "5"}, {"u1", "B", ""}, {"u2", "A", "4"},
             {"u2", "B", ""}, {"u3", "C", "1"}, {"probe", "A", ""}}) {
      EXPECT_TRUE(client_.post_sync(u, i, p).ok());
    }
    lrs_.train();
  }

  crypto::Drbg rng_;
  lrs::HarnessServer lrs_;
  Deployment deployment_;
  ClientLibrary client_;
};

TEST_F(RotationTest, RotationPreservesDataAndPayloads) {
  const auto before = lrs_.dump_event_rows();
  const auto rotation = rotate_keys(deployment_.application_keys(), lrs_, rng_);
  ASSERT_TRUE(rotation.ok());
  EXPECT_EQ(rotation.value().rows_reencrypted, before.size());
  const auto after = lrs_.dump_event_rows();
  ASSERT_EQ(after.size(), before.size());
  // Payload survives; pseudonyms all changed.
  std::multiset<std::string> payloads_before, payloads_after;
  std::set<std::string> users_before, users_after;
  for (const auto& row : before) {
    payloads_before.insert(row.payload);
    users_before.insert(row.user);
  }
  for (const auto& row : after) {
    payloads_after.insert(row.payload);
    users_after.insert(row.item.empty() ? "" : row.user);
  }
  EXPECT_EQ(payloads_before, payloads_after);
  for (const auto& u : users_after) EXPECT_EQ(users_before.count(u), 0u);
}

TEST_F(RotationTest, OldSecretsUselessAfterRotation) {
  // The adversary fully looted both layers (worst case) BEFORE rotation.
  attack::Adversary adversary;
  adversary.steal_ua_secrets(deployment_.application_keys().ua);
  adversary.steal_ia_secrets(deployment_.application_keys().ia);

  const auto rotation = rotate_keys(deployment_.application_keys(), lrs_, rng_);
  ASSERT_TRUE(rotation.ok());

  // Old keys against the rotated database: every row now decrypts to junk
  // (unpad fails or yields a non-identifier), so linking fails everywhere.
  for (const auto& [u, i] : lrs_.dump_events()) {
    const attack::LrsDbRow row{u, i};
    const auto user = adversary.de_pseudonymize_user(row);
    if (user.ok()) {
      EXPECT_EQ(user.value().find("u"), std::string::npos)
          << "old key recovered a plausible id: " << user.value();
    }
    EXPECT_FALSE(adversary.can_link("u1", "A", {row}, {}));
  }
}

TEST_F(RotationTest, FreshDeploymentServesIdenticalRecommendationsAfterRotation) {
  const auto before = client_.get_sync("probe");
  ASSERT_TRUE(before.ok());

  const auto rotation = rotate_keys(deployment_.application_keys(), lrs_, rng_);
  ASSERT_TRUE(rotation.ok());
  lrs_.train();  // pseudonym space changed: retrain

  // Fresh enclaves provisioned with the new secrets; clients get new params.
  // (Deployment generates its own keys, so provision enclaves by hand.)
  enclave::AttestationService authority(rng_);
  enclave::Enclave ua(kUaCodeIdentity, rng_);
  enclave::Enclave ia(kIaCodeIdentity, rng_);
  authority.register_platform(ua);
  authority.register_platform(ia);
  ASSERT_TRUE(attest_and_provision(ua, authority,
                                   enclave::Measurement::of_code(kUaCodeIdentity),
                                   rotation.value().new_keys.ua, rng_)
                  .ok());
  ASSERT_TRUE(attest_and_provision(ia, authority,
                                   enclave::Measurement::of_code(kIaCodeIdentity),
                                   rotation.value().new_keys.ia, rng_)
                  .ok());
  ProxyOptions ia_options;
  ia_options.layer = ProxyOptions::Layer::kIa;
  ProxyServer ia_proxy(ia_options, ia,
                       std::make_shared<net::InProcChannel>(lrs_));
  ProxyOptions ua_options;
  ProxyServer ua_proxy(ua_options, ua,
                       std::make_shared<net::InProcChannel>(ia_proxy));
  ClientLibrary new_client(rotation.value().new_keys.client_params(),
                           std::make_shared<net::InProcChannel>(ua_proxy),
                           &rng_);

  const auto after = new_client.get_sync("probe");
  ASSERT_TRUE(after.ok()) << after.error().message;
  EXPECT_EQ(after.value(), before.value());
}

TEST_F(RotationTest, DeploymentRotateIsOneCall) {
  const auto before = client_.get_sync("probe");
  ASSERT_TRUE(before.ok());
  const auto old_keys = deployment_.application_keys();

  ASSERT_TRUE(deployment_.rotate(lrs_, rng_).ok());
  EXPECT_EQ(deployment_.key_epoch(), 1u);
  lrs_.train();

  // Keys actually changed; old client params are stale.
  EXPECT_NE(deployment_.application_keys().ua.k, old_keys.ua.k);
  EXPECT_FALSE(client_.post_sync("probe", "whatever").ok());

  // A fresh client works and sees the same recommendations as before.
  ClientLibrary fresh = deployment_.make_client(&rng_);
  ASSERT_TRUE(fresh.post_sync("newbie", "A").ok());
  const auto after = fresh.get_sync("probe");
  ASSERT_TRUE(after.ok()) << after.error().message;
  EXPECT_EQ(after.value(), before.value());

  // Rotations stack.
  ASSERT_TRUE(deployment_.rotate(lrs_, rng_).ok());
  EXPECT_EQ(deployment_.key_epoch(), 2u);
  lrs_.train();
  ClientLibrary fresher = deployment_.make_client(&rng_);
  EXPECT_TRUE(fresher.get_sync("probe").ok());
}

TEST_F(RotationTest, StaleChannelFailsClosedAfterRotation) {
  // Regression pin for the InProcChannel weak_ptr fix: a channel grabbed
  // before rotate() must not deliver to the rotated-out proxy (rotate frees
  // it) — the channel's weak reference expires instead, the completion gets
  // a synchronous 503 "backend gone", and there is no freed-proxy touch for
  // ASan to report. Before the fix this was a use-after-free; today the
  // behaviour is only covered incidentally via post_sync failing.
  const std::shared_ptr<net::HttpChannel> stale = deployment_.entry_channel();

  ASSERT_TRUE(deployment_.rotate(lrs_, rng_).ok());
  lrs_.train();

  int completions = 0;
  http::HttpResponse seen;
  http::HttpRequest request;
  request.method = "POST";
  request.target = "/recommend";
  request.body = "probe";
  stale->send(std::move(request), [&](http::HttpResponse response) {
    ++completions;
    seen = std::move(response);
  });
  // InProcChannel fails closed synchronously: exactly one completion, and
  // the error names the dead backend rather than echoing proxy output.
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(seen.status, 503);
  EXPECT_NE(seen.body.find("backend gone"), std::string::npos) << seen.body;

  // Sends through the stale channel never resurrect the old stack: repeat
  // sends keep failing closed while a fresh client is fully live.
  http::HttpRequest again;
  stale->send(std::move(again), [&](http::HttpResponse response) {
    ++completions;
    EXPECT_EQ(response.status, 503);
  });
  EXPECT_EQ(completions, 2);
  ClientLibrary fresh = deployment_.make_client(&rng_);
  EXPECT_TRUE(fresh.get_sync("probe").ok());
}

// LRS channel whose first send parks on a gate; every send then answers
// synchronously from the wrapped sink, as the in-process LRS does.
class GatedLrsChannel final : public net::HttpChannel {
 public:
  explicit GatedLrsChannel(net::RequestSink& lrs) : lrs_(lrs) {}

  void send(http::HttpRequest request, net::RespondFn done) override {
    if (!first_taken_.exchange(true)) {
      parked_.set_value();
      gate_.wait();
    }
    lrs_.handle(std::move(request), std::move(done));
  }

  std::future<void> parked() { return parked_.get_future(); }
  void open() { opener_.set_value(); }

 private:
  net::RequestSink& lrs_;
  std::atomic<bool> first_taken_{false};
  std::promise<void> parked_;
  std::promise<void> opener_;
  std::shared_future<void> gate_ = opener_.get_future().share();
};

// Teardown of an IA proxy with S=2 while a handle() task is still queued
// behind the only worker, which is parked inside the LRS send of the first
// flush. The destructor's pool shutdown runs that task, which buffers the
// third request; its flush then has to reach a live response queue (post)
// and a stopped pool (get). Before the fix the post's callback added to the
// already-destroyed response queue (heap-use-after-free under ASan) and the
// get's response was silently dropped. Now each of the three requests gets
// exactly one response, forwarded by the LRS.
TEST(ProxyTeardown, RequestQueuedBehindBlockedWorkerGetsOneResponse) {
  for (const bool third_is_get : {false, true}) {
    SCOPED_TRACE(third_is_get ? "third request is a get"
                              : "third request is a post");
    crypto::Drbg rng(to_bytes("proxy-teardown"));
    const ApplicationKeys keys = ApplicationKeys::generate(rng);
    enclave::AttestationService authority(rng);
    enclave::Enclave ia(kIaCodeIdentity, rng);
    authority.register_platform(ia);
    ASSERT_TRUE(attest_and_provision(
                    ia, authority, enclave::Measurement::of_code(kIaCodeIdentity),
                    keys.ia, rng)
                    .ok());
    lrs::HarnessServer lrs;
    const auto channel = std::make_shared<GatedLrsChannel>(lrs);
    std::future<void> parked = channel->parked();

    ProxyOptions options;
    options.layer = ProxyOptions::Layer::kIa;
    options.shuffle_size = 2;
    options.shuffle_timeout = std::chrono::seconds(30);  // size flushes only
    options.worker_threads = 1;
    auto proxy = std::make_unique<ProxyServer>(options, ia, channel);

    ClientLibrary client(keys.client_params(), nullptr, &rng);
    std::vector<http::HttpRequest> requests;
    for (int i = 0; i < 2; ++i) {
      requests.push_back(client
                             .build_post_request("user-" + std::to_string(i),
                                                 "item-" + std::to_string(i))
                             .value());
    }
    requests.push_back(third_is_get
                           ? client.build_get_request("user-2").value().request
                           : client.build_post_request("user-2", "item-2")
                                 .value());

    std::atomic<int> responses[3] = {0, 0, 0};
    std::atomic<int> statuses[3] = {0, 0, 0};
    auto respond_into = [&](int i) {
      return [&, i](http::HttpResponse response) {
        statuses[i].store(response.status);
        responses[i].fetch_add(1);
      };
    };
    // The first two fill the shuffle buffer: the worker flushes them and
    // parks in the first LRS send. The third stays queued in the pool.
    proxy->handle(std::move(requests[0]), respond_into(0));
    proxy->handle(std::move(requests[1]), respond_into(1));
    ASSERT_EQ(parked.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    proxy->handle(std::move(requests[2]), respond_into(2));

    std::thread destroyer([&proxy] { proxy.reset(); });
    // Let the destructor reach the pool shutdown before the worker resumes.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    channel->open();
    destroyer.join();

    // The LRS answers a post 201 and a get 200 (a sealed, padded list).
    const int expected_status[3] = {201, 201, third_is_get ? 200 : 201};
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(responses[i].load(), 1) << "request " << i;
      EXPECT_EQ(statuses[i].load(), expected_status[i]) << "request " << i;
    }
  }
}

TEST(Rotation, RefusesCorruptDatabaseUntouched) {
  crypto::Drbg rng(to_bytes("rot-corrupt"));
  lrs::HarnessServer lrs;
  lrs.post_event("not-a-pseudonym", "also-not", "");
  const ApplicationKeys keys = ApplicationKeys::generate(rng);
  const auto rotation = rotate_keys(keys, lrs, rng);
  EXPECT_FALSE(rotation.ok());
  // The store was not half-rotated.
  EXPECT_EQ(lrs.dump_event_rows()[0].user, "not-a-pseudonym");
}

}  // namespace
}  // namespace pprox
