// Heap-allocation and lock budgets for the request path (DESIGN.md §11).
//
// PProx's efficiency claim rests on the enclave-side path staying cheap:
// one transition per shuffle flush, and no heap or lock traffic beyond what
// the protocol needs (paper §4, §6). This binary replaces the global
// operator new to count allocations made by the calling thread, and reads
// the sync layer's per-thread lock counter (detail::lock_acquisitions),
// bumped by every Mutex/SharedMutex acquisition. It pins:
//
//  * zero allocations and zero locks on the warm non-blocking paths (HTTP
//    serialize_to into a reused buffer, the CTR keystream kernels, arena
//    alloc within its reservation), and zero allocations plus exactly the
//    queue's own lock for ShuffleQueue::add below capacity;
//  * an exact budget for one fixed-seed S=10 flush of each batch entry
//    point, the same on both crypto backends. The batch entry points run
//    every slot on the calling thread by default, so the count covers the
//    whole flush;
//  * self-checks that the counters see each bug class the planted fixtures
//    of the retired static pass showed.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/encoding.hpp"
#include "common/sync.hpp"
#include "crypto/accel.hpp"
#include "crypto/ctr.hpp"
#include "crypto/drbg.hpp"
#include "http/http.hpp"
#include "pprox/client.hpp"
#include "pprox/logic.hpp"
#include "pprox/shuffle.hpp"
#include "oracle.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// GCC cannot see that these deletes only ever free what the news above
// malloc'd, and warns at every inlined new/delete pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pprox {
namespace {

using crypto::accel::Backend;

struct Cost {
  std::uint64_t allocations = 0;
  std::uint64_t locks = 0;
  bool operator==(const Cost&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Cost& c) {
  return os << "{" << c.allocations << " allocations, " << c.locks
            << " locks}";
}

/// Allocations and lock acquisitions `f` makes on the calling thread.
template <typename F>
Cost cost_of(F&& f) {
  const std::uint64_t a0 = t_allocations;
  const std::uint64_t l0 = detail::lock_acquisitions;
  f();
  return {t_allocations - a0, detail::lock_acquisitions - l0};
}

// --- self-checks: the bug classes of the retired static pass --------------

char* g_escape = nullptr;  // keeps planted allocations observable

[[gnu::noinline]] void direct_alloc() { g_escape = new char[64]; }

[[gnu::noinline]] void level_two(std::vector<int>& out) { out.push_back(7); }
[[gnu::noinline]] void level_one(std::vector<int>& out) { level_two(out); }

struct Handler {
  virtual ~Handler() = default;
  virtual void handle(char c) = 0;
};
struct AllocatingHandler final : Handler {
  void handle(char c) override { log.append(64, c); }
  std::string log;
};

struct Counter {
  Mutex mu;
  int value = 0;
  [[gnu::noinline]] void bump() {
    LockGuard lock(mu);
    ++value;
  }
};

[[gnu::noinline]] void guarded_throw() {
  try {
    throw std::runtime_error("Result: error() on ok result");
  } catch (const std::runtime_error&) {
  }
}

TEST(AllocBudgetSelfCheck, CountersSeeEachPlantedBugClass) {
  EXPECT_EQ(cost_of(direct_alloc), (Cost{1, 0}));
  delete[] g_escape;

  std::vector<int> out;
  EXPECT_EQ(cost_of([&out] { level_one(out); }), (Cost{1, 0}));

  AllocatingHandler allocating;
  Handler* handler = &allocating;
  EXPECT_EQ(cost_of([handler] { handler->handle('x'); }), (Cost{1, 0}));

  Counter counter;
  EXPECT_EQ(cost_of([&counter] { counter.bump(); }), (Cost{0, 1}));

  // A throw allocates its message (libstdc++'s refcounted string).
  EXPECT_EQ(cost_of(guarded_throw), (Cost{1, 0}));
}

// --- warm non-blocking paths ----------------------------------------------

TEST(AllocBudget, WarmHttpSerializeIntoReusedBufferIsFree) {
  http::HttpRequest request;
  request.method = "POST";
  request.target = "/engines/ur/events";
  request.set_header("Content-Type", "application/json");
  request.body = std::string(300, 'r');
  const http::HttpResponse response =
      http::HttpResponse::json_response(200, std::string(300, 's'));

  std::string out;
  request.serialize_to(out);  // warm: the buffer grows once
  response.serialize_to(out);
  out.clear();
  EXPECT_EQ(cost_of([&] { request.serialize_to(out); }), Cost{});
  out.clear();
  EXPECT_EQ(cost_of([&] { response.serialize_to(out); }), Cost{});
}

TEST(AllocBudget, ArenaAllocWithinReservationIsFree) {
  BatchArena arena(64 * kIdBlockSize);
  EXPECT_EQ(cost_of([&arena] {
              for (int i = 0; i < 64; ++i) arena.alloc(kIdBlockSize);
            }),
            Cost{});
  arena.wipe_and_reset();
}

TEST(AllocBudget, ShuffleAddBelowCapacityTakesOnlyItsOwnLock) {
  ShuffleQueue<std::string> queue(
      10, std::chrono::seconds(60),
      [](std::span<std::string>, const FlushInfo&) {});
  for (int i = 0; i < 9; ++i) {
    std::string item(100, static_cast<char>('a' + i));
    EXPECT_EQ(cost_of([&] { queue.add(std::move(item)); }), (Cost{0, 1}))
        << "item " << i;
  }
}

// --- per-backend: crypto kernels and S=10 flush budgets -------------------

constexpr std::size_t kS = 10;

/// What one flush of each batch entry point costs: UA transform_batch, IA
/// transform_batch, IA seal_batch. Exact, so a change in either direction
/// fails: a new per-request allocation (S per flush) cannot hide, and a
/// removed one is recorded here. The RSA unwraps run the stack-only
/// Montgomery kernel on every backend, so one budget serves both; the seal
/// takes the response DRBG's lock once per flush.
using FlushBudget = std::array<Cost, 3>;
constexpr FlushBudget kFlushBudget{{{110, 0}, {100, 0}, {791, 1}}};

/// One tenant's logic and the inputs of one S=10 flush per entry point:
/// ten gets, and LRS responses of ten items each (padded to 20).
struct World {
  crypto::Drbg rng{to_bytes("alloc-budget")};
  ApplicationKeys keys = ApplicationKeys::generate(rng);
  UaLogic ua = UaLogic::from_secrets(keys.ua.serialize()).value();
  IaLogic ia = IaLogic::from_secrets(keys.ia.serialize()).value();
  std::vector<std::string> ua_bodies, ia_bodies, lrs_bodies;
  std::vector<Bytes> k_u;

  World() {
    ClientLibrary client(keys.client_params(), nullptr, &rng);
    const crypto::DeterministicCipher det(keys.ia.k);
    for (std::size_t i = 0; i < kS; ++i) {
      auto call = client.build_get_request("user-" + std::to_string(i));
      const std::string& body = call.value().request.body;
      ua_bodies.push_back(body);
      ia_bodies.push_back(oracle::ua_transform_request(keys.ua, body).value());
      k_u.push_back(call.value().k_u);
      json::JsonArray items;
      for (std::size_t j = 0; j < 10; ++j) {
        const Bytes block = pad_identifier("item-" + std::to_string(j)).value();
        items.emplace_back(base64_encode(det.encrypt(block)));
      }
      json::JsonValue lrs{json::JsonObject{}};
      lrs.set("items", std::move(items));
      lrs_bodies.push_back(lrs.dump());
    }
  }
};

const World& world() {
  static const World w;
  return w;
}

/// Runs one flush of each entry point on fresh copies of the inputs.
FlushBudget flush_costs(BatchArena& arena) {
  const World& w = world();
  FlushBudget costs;

  std::vector<std::string> bodies = w.ua_bodies;
  std::vector<UaBatchSlot> ua_slots;
  for (std::string& body : bodies) ua_slots.push_back({&w.ua, &body, {}, {}});
  costs[0] = cost_of([&] { UaLogic::transform_batch(ua_slots, arena); });
  for (const auto& slot : ua_slots) EXPECT_TRUE(slot.status.ok());
  arena.wipe_and_reset();

  bodies = w.ia_bodies;
  std::vector<IaRequestSlot> ia_slots(kS);
  for (std::size_t i = 0; i < kS; ++i) {
    ia_slots[i].logic = &w.ia;
    ia_slots[i].body = &bodies[i];
    ia_slots[i].is_get = true;
  }
  costs[1] = cost_of([&] { IaLogic::transform_batch(ia_slots, arena); });
  for (const auto& slot : ia_slots) EXPECT_TRUE(slot.status.ok());
  arena.wipe_and_reset();

  std::vector<IaSealSlot> seal_slots(kS);
  for (std::size_t i = 0; i < kS; ++i) {
    seal_slots[i].logic = &w.ia;
    seal_slots[i].lrs_body = &w.lrs_bodies[i];
    seal_slots[i].k_u = ByteView(w.k_u[i]);
  }
  crypto::Drbg rng(to_bytes("alloc-budget-seal"));
  costs[2] = cost_of([&] { IaLogic::seal_batch(seal_slots, rng, arena); });
  for (const auto& slot : seal_slots) EXPECT_TRUE(slot.status.ok());
  arena.wipe_and_reset();
  return costs;
}

class AllocBudgetTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (!crypto::accel::select_backend(GetParam())) {
      GTEST_SKIP() << "accelerated backend unavailable on this CPU";
    }
  }
  void TearDown() override { crypto::accel::select_backend(Backend::kAuto); }
};

TEST_P(AllocBudgetTest, WarmCtrKernelsAreFree) {
  const crypto::DeterministicCipher det(world().keys.ua.k);
  const crypto::Aes aes(world().keys.ia.k);
  Bytes buffer(kS * kIdBlockSize, 0x5A);
  const MutByteView view(buffer.data(), buffer.size());
  const std::array<std::uint8_t, 16> iv{};
  det.keystream(view);  // warm: first use resolves the dispatch
  crypto::ctr_crypt_inplace(aes, iv, view);
  EXPECT_EQ(cost_of([&] { det.keystream(view); }), Cost{});
  EXPECT_EQ(cost_of([&] { crypto::ctr_crypt_inplace(aes, iv, view); }),
            Cost{});
}

TEST_P(AllocBudgetTest, SteadyStateFlushesMeetTheirExactBudgets) {
  // Sized like the proxy's pooled per-flush scratch.
  BatchArena arena(kS * kResponseBlockSize + 4096);
  flush_costs(arena);  // warm: function-local tables, first-use dispatch
  const FlushBudget costs = flush_costs(arena);
  EXPECT_EQ(costs[0], kFlushBudget[0]) << "UaLogic::transform_batch";
  EXPECT_EQ(costs[1], kFlushBudget[1]) << "IaLogic::transform_batch";
  EXPECT_EQ(costs[2], kFlushBudget[2]) << "IaLogic::seal_batch";
}

INSTANTIATE_TEST_SUITE_P(Backends, AllocBudgetTest,
                         ::testing::Values(Backend::kPortable,
                                           Backend::kAccelerated),
                         [](const auto& info) {
                           return info.param == Backend::kPortable
                                      ? "Portable"
                                      : "Accelerated";
                         });

}  // namespace
}  // namespace pprox
