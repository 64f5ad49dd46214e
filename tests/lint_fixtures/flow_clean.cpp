// PPROX-LAYER: shared
//
// Fixture: a well-behaved shared-layer unit. Declares its layer, references
// no domain-plaintext symbols, uses no raw sync or banned crypto APIs.
// Expected findings: none.

namespace fixture {

inline int add_checked(int a, int b) {
  return a + b;
}

}  // namespace fixture
