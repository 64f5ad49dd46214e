// Planted lifetime bugs that AddressSanitizer must catch (DESIGN.md §12).
// The normal build runs the correct version of each variant and exits 0;
// -DPPROX_CHECK_SELFTEST plants the bugs, one per argv[1] variant:
//   return-local  view of a dead heap-backed local: heap-use-after-free
//   ref-capture   by-reference lambda called after its frame returned:
//                 stack-use-after-return (detect_stack_use_after_return=1)
//   arena         BatchArena view read after wipe_and_reset():
//                 use-after-poison

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "pprox/batch.hpp"

namespace {

#ifdef PPROX_CHECK_SELFTEST
std::string_view greeting() {
  std::string local(96, 'g');  // heap-backed: no SSO rescue for the view
  std::string_view view = local;
  return view;  // dangling
}

[[gnu::noinline]] std::function<int()> counter() {
  int hits = 41;
  return [&hits] { return ++hits; };  // dangling: `hits` dies on return
}
#else
std::string greeting() { return std::string(96, 'g'); }

[[gnu::noinline]] std::function<int()> counter() {
  int hits = 41;
  return [hits]() mutable { return ++hits; };
}
#endif

bool return_local() {
  auto g = greeting();
  // Touch every byte so the stale read cannot be optimized away.
  unsigned long sum = 0;
  for (char c : std::string_view(g)) sum += static_cast<unsigned char>(c);
  return sum == 96ul * 'g';
}

bool arena() {
  pprox::BatchArena arena(64);
  const pprox::MutByteView view = arena.alloc(16);
  view[0] = 7;
#ifdef PPROX_CHECK_SELFTEST
  arena.wipe_and_reset();
  return view[0] == 0;  // read after reset
#else
  const bool ok = view[0] == 7;
  arena.wipe_and_reset();
  return ok;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view only = argc > 1 ? argv[1] : "";
  const auto run = [&](std::string_view name) {
    return only.empty() || only == name;
  };
  bool ok = true;
  if (run("return-local")) ok = return_local() && ok;
  if (run("ref-capture")) ok = counter()() == 42 && ok;
  if (run("arena")) ok = arena() && ok;
  std::printf("lifetime selftest: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
