#!/usr/bin/env bash
# One-command local reproduction of the full static/dynamic analysis gate:
#
#   1. crypto-hygiene + information-flow lint (tools/pprox_lint --flow) over
#      every layered directory, gated against tools/lint_baseline.json
#   2. constant-time discipline lint (tools/pprox_lint --ct, DESIGN.md §13)
#      over the whole src/ tree, gated against tools/ct_baseline.json
#   3. negative-compile suite (tests/compile_fail/): taint-domain and
#      lock-API violations must fail to compile; the negative-run pairs
#      (double join, ecall under a lock, wait holding a second lock) must
#      fail at runtime (DESIGN.md §12)
#   4. lint golden fixtures (tests/lint_fixtures/): analyzer behaviour pins
#   5. ASan + UBSan build (-Werror: a compiler warning fails the gate),
#      full ctest suite (leaks, overflows, UB); the
#      quick gate runs a smoke subset instead, including the allocation and
#      lock budgets of tests/test_alloc_budget.cpp (DESIGN.md §11) and the
#      JSON nesting bound
#   6. lifetime selftest: the -DPPROX_CHECK_SELFTEST return-local,
#      ref-capture and arena variants must each be caught by ASan
#      (WILL_FAIL, DESIGN.md §12)
#   7. TSan build, concurrency-heavy tests (races in queue/pool/shuffler)
#      plus the planted lock-order inversion TSan must report
#   8. clang-tidy (bugprone-*, concurrency-*, performance-*) when installed
#
# Usage:
#   scripts/check.sh           # full gate (several minutes)
#   scripts/check.sh --quick   # lint + compile-fail + fixtures + ASan smoke
#                              # (incl. the allocation/lock budget test)
#   scripts/check.sh --model   # pprox_check interleaving exploration only:
#                              # normal build (models must pass) + selftest
#                              # fault-injection build (models must fail)
#   scripts/check.sh --bench   # regression gate: run bench_crypto /
#                              # bench_pipeline, compare against the
#                              # committed BENCH_*.json via bench_report.py
#                              # --compare; fails on > PPROX_BENCH_THRESHOLD
#                              # (default 0.15 = 15%) cpu-time regression
#   scripts/check.sh --bench-update
#                              # rewrite BENCH_crypto.json / BENCH_pipeline.
#                              # json at the repo root from a fresh run
#   scripts/check.sh --tidy    # clang-tidy only (needs LLVM installed)
#
# Every stage is wall-clocked; a summary table prints at the end with a
# per-stage status column (ok / warn / FAIL), and a failure reports the
# stage it died in (fail-fast via ERR trap). Lint stages that exit 2
# (operational warning) or report stale baseline entries finish as `warn`
# instead of folding into success — the gate still passes, but the state
# is visible.
#
# Sanitizer and model-check stages run with PPROX_DISABLE_ACCEL=1: the
# portable reference path is the one whose every byte ASan/UBSan/TSan can
# instrument (intrinsics hide loads from the shadow), and tests that matter
# for the accelerated kernels pin Backend::kAccelerated explicitly
# (test_accel), which overrides the env var by design.
#
# Build trees land in build-asan/, build-tsan/, build-bench/, build-model/,
# build-model-selftest/ and build-lifetime-selftest/ next to build/ and are
# reused across runs (incremental). Exit status is nonzero on any failure.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-full}"
BENCH_THRESHOLD="${PPROX_BENCH_THRESHOLD:-0.15}"

# Abort on the first sanitizer report instead of limping on; ASan also
# checks stack frames after return (by-reference captures that outlive
# them); TSan history sized for the deep happens-before graphs of the
# pipeline tests.
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:abort_on_error=0:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:history_size=7"

# Sanitized/model runs exercise the portable crypto reference; accelerated
# kernels are covered by test_accel's explicit backend pinning (see header).
case "$MODE" in --bench|--bench-update) ;; *) export PPROX_DISABLE_ACCEL=1 ;; esac

# --- stage bookkeeping ------------------------------------------------------
STAGE_NAMES=()
STAGE_TIMES=()
STAGE_STATUS=()
CURRENT_STAGE=""
CURRENT_STATUS="ok"
STAGE_T0=0

finish_stage() {
  if [[ -n "$CURRENT_STAGE" ]]; then
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_TIMES+=("$(($(date +%s) - STAGE_T0))")
    STAGE_STATUS+=("$CURRENT_STATUS")
    CURRENT_STAGE=""
    CURRENT_STATUS="ok"
  fi
}

step() {
  finish_stage
  CURRENT_STAGE="$*"
  STAGE_T0="$(date +%s)"
  printf '\n\033[1m== %s ==\033[0m\n' "$*"
}

summary() {
  finish_stage
  printf '\n\033[1m%-55s %8s  %s\033[0m\n' "stage" "seconds" "status"
  local i total=0
  for i in "${!STAGE_NAMES[@]}"; do
    printf '%-55s %8s  %s\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}" \
      "${STAGE_STATUS[$i]}"
    total=$((total + STAGE_TIMES[i]))
  done
  printf '%-55s %8s\n' "total" "$total"
}

on_error() {
  CURRENT_STATUS="FAIL"
  printf '\n\033[1;31mFAILED in stage: %s\033[0m\n' \
    "${CURRENT_STAGE:-<setup>}" >&2
  summary >&2 || true
}
trap on_error ERR

# Runs one pprox_lint invocation, mapping its exit-code convention onto the
# stage status: 0 is ok (downgraded to `warn` if stale baseline entries were
# reported), 2 (operational warning: unreadable input, missing baseline) is
# `warn` and does NOT abort the gate, and 1 (findings/regressions) fails the
# stage via the ERR trap as before.
run_lint() {
  local rc=0 out
  out="$("$@" 2>&1)" || rc=$?
  printf '%s\n' "$out"
  case "$rc" in
    0) if grep -q 'note: baseline entry no longer fires' <<<"$out"; then
         CURRENT_STATUS="warn"
       fi ;;
    2) printf '\033[1;33mwarn: %s exited 2 (operational warning)\033[0m\n' \
         "$1" >&2
       CURRENT_STATUS="warn" ;;
    *) return "$rc" ;;
  esac
  return 0
}

configure_and_build() {
  local dir="$1" sanitize="$2"
  shift 2
  # The ASan tree builds every quick-gate binary, with warnings as errors.
  local werror=()
  if [[ "$dir" == build-asan ]]; then werror=(-DCMAKE_CXX_FLAGS=-Werror); fi
  cmake -B "$ROOT/$dir" -S "$ROOT" -DPPROX_SANITIZE="$sanitize" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo "${werror[@]}" >/dev/null
  cmake --build "$ROOT/$dir" -j "$JOBS" "$@"
}

run_tidy() {
  if command -v clang-tidy >/dev/null 2>&1; then
    step "clang-tidy (bugprone-*, concurrency-*, performance-*)"
    cmake -B "$ROOT/build-tidy" -S "$ROOT" \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Sources only; headers are covered via HeaderFilterRegex in .clang-tidy.
    find "$ROOT/src" "$ROOT/tools" -name '*.cpp' -print0 |
      xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$ROOT/build-tidy" --quiet
  else
    step "clang-tidy not installed — skipped (install LLVM to enable)"
  fi
}

run_bench() {
  # A Release tree so the numbers reflect the shipped optimization level,
  # not RelWithDebInfo sanitizer scaffolding. Each binary runs both backend
  # variants in one process (BENCHMARK_CAPTURE pins Backend::kPortable /
  # kAccelerated), so the speedup column compares like with like.
  local update="$1"
  step "bench: build + run crypto and pipeline benchmarks"
  cmake -B "$ROOT/build-bench" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$ROOT/build-bench" -j "$JOBS" \
        --target bench_crypto bench_pipeline
  local name
  for name in crypto pipeline; do
    "$ROOT/build-bench/bench/bench_$name" \
        --benchmark_format=json --benchmark_out_format=json \
        --benchmark_out="$ROOT/build-bench/bench_${name}_raw.json" >/dev/null
    python3 "$ROOT/scripts/bench_report.py" \
        "$ROOT/build-bench/bench_${name}_raw.json" \
        "$ROOT/build-bench/BENCH_${name}.json"
  done

  if [[ "$update" == 1 ]]; then
    step "bench baseline update: BENCH_crypto.json, BENCH_pipeline.json"
    cp "$ROOT/build-bench/BENCH_crypto.json" "$ROOT/BENCH_crypto.json"
    cp "$ROOT/build-bench/BENCH_pipeline.json" "$ROOT/BENCH_pipeline.json"
  else
    step "bench regression gate (threshold ${BENCH_THRESHOLD})"
    for name in crypto pipeline; do
      echo "BENCH_${name}.json vs fresh run:"
      python3 "$ROOT/scripts/bench_report.py" --compare \
          "$ROOT/BENCH_${name}.json" "$ROOT/build-bench/BENCH_${name}.json" \
          --threshold "$BENCH_THRESHOLD"
    done
  fi
}

if [[ "$MODE" == "--tidy" ]]; then
  run_tidy
  step "tidy gate PASSED"
  summary
  exit 0
fi

if [[ "$MODE" == "--bench" || "$MODE" == "--bench-update" ]]; then
  run_bench "$([[ "$MODE" == "--bench-update" ]] && echo 1 || echo 0)"
  step "bench gate PASSED"
  summary
  exit 0
fi

if [[ "$MODE" == "--model" ]]; then
  # Deterministic interleaving exploration (DESIGN.md §9). Two builds:
  #
  #   build-model           sync.hpp routes through the det scheduler; the
  #                         six pprox_check models (shuffle, mpmc, pool,
  #                         rotation, lockorder, fanout) run bounded-exhaustive DFS
  #                         and fixed-seed PCT and must all PASS.
  #   build-model-selftest  additionally compiles the pre-fix bugs back in
  #                         (-DPPROX_CHECK_SELFTEST). Every model test is
  #                         WILL_FAIL: ctest passes only if pprox_check
  #                         still FINDS every seeded bug. A green selftest
  #                         proves the checker, not the code.
  step "model: exhaustive + PCT exploration (bugs must be absent)"
  cmake -B "$ROOT/build-model" -S "$ROOT" -DPPROX_MODEL_CHECK=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$ROOT/build-model" -j "$JOBS" --target pprox_check
  ctest --test-dir "$ROOT/build-model" -R '^model_' \
        --output-on-failure -j "$JOBS"

  step "model selftest: fault injection (bugs must be FOUND)"
  cmake -B "$ROOT/build-model-selftest" -S "$ROOT" -DPPROX_MODEL_CHECK=ON \
        -DPPROX_CHECK_SELFTEST=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$ROOT/build-model-selftest" -j "$JOBS" --target pprox_check
  ctest --test-dir "$ROOT/build-model-selftest" -R '^model_' \
        --output-on-failure -j "$JOBS"

  step "model gate PASSED"
  summary
  exit 0
fi

LINT_SCOPE=("$ROOT/src/common" "$ROOT/src/crypto" "$ROOT/src/pprox"
            "$ROOT/src/lrs" "$ROOT/src/attack" "$ROOT/tools")

step "crypto-hygiene + information-flow lint (pprox_lint --flow)"
configure_and_build build-asan "address;undefined" --target pprox_lint
run_lint "$ROOT/build-asan/tools/pprox_lint" --flow "${LINT_SCOPE[@]}"
run_lint "$ROOT/build-asan/tools/pprox_lint" --flow \
    --baseline "$ROOT/tools/lint_baseline.json" "${LINT_SCOPE[@]}"
# raw-sync (and crypto rules) over the whole production tree: no raw std
# sync primitive outside common/sync.hpp, or pprox_check cannot see it.
run_lint "$ROOT/build-asan/tools/pprox_lint" "$ROOT/src"

step "constant-time discipline lint (pprox_lint --ct, DESIGN.md §13)"
run_lint "$ROOT/build-asan/tools/pprox_lint" --ct \
    --baseline "$ROOT/tools/ct_baseline.json" "$ROOT/src"

step "negative-compile suite (taint and lock-API violations must not build)"
# Most cases drive the compiler directly (-fsyntax-only), but the
# negative-RUN pairs need their binaries.
configure_and_build build-asan "address;undefined" \
    --target cf_detthread_double_join_control cf_detthread_double_join_violation \
             cf_lock_ecall_control cf_lock_ecall_violation \
             cf_wait_second_lock_control cf_wait_second_lock_violation
ctest --test-dir "$ROOT/build-asan" -R '^compile_fail_' \
      --output-on-failure -j "$JOBS"

step "lint golden fixtures (ct + flow pins)"
ctest --test-dir "$ROOT/build-asan" -R '^lint_fixture_' \
      --output-on-failure -j "$JOBS"

if [[ "$MODE" == "--quick" ]]; then
  # test_batch is the batched-vs-sequential ecall differential (DESIGN.md
  # §14): under ASan it also proves the arena recycling/wipe discipline.
  # test_alloc_budget pins the per-flush allocation and lock budgets and
  # the zero-cost warm paths (§11); test_json's nesting cases prove the
  # recursion bound fails closed without a stack overflow.
  step "ASan/UBSan smoke: concurrent, pipeline, batch, alloc budget, json"
  configure_and_build build-asan "address;undefined" \
      --target test_concurrent test_pipeline test_batch test_alloc_budget \
               test_json
  ctest --test-dir "$ROOT/build-asan" \
        -R 'test_(concurrent|pipeline|batch|alloc_budget|json)$' \
        --output-on-failure -j "$JOBS"
  step "quick gate PASSED"
  summary
  exit 0
fi

step "ASan/UBSan: full test suite"
configure_and_build build-asan "address;undefined"
ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS"

# Lifetime selftest (DESIGN.md §12): compile the planted return-local,
# ref-capture and arena bugs back in (-DPPROX_CHECK_SELFTEST, which requires
# the model-check scheduler) under ASan, and require ASan to catch each one
# (WILL_FAIL). Only the standalone selftest binary is built: the
# fault-injected library tree is not linked, so the seeded pprox_check bugs
# stay out of this stage.
step "lifetime selftest: planted lifetime bugs must be caught by ASan"
cmake -B "$ROOT/build-lifetime-selftest" -S "$ROOT" -DPPROX_MODEL_CHECK=ON \
      -DPPROX_CHECK_SELFTEST=ON -DPPROX_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$ROOT/build-lifetime-selftest" -j "$JOBS" \
      --target pprox_lifetime_selftest
ctest --test-dir "$ROOT/build-lifetime-selftest" -R '^lifetime_selftest' \
      --output-on-failure -j "$JOBS"

# lock_order_inversion is WILL_FAIL in this tree: TSan's deadlock detector
# must report its planted a->b / b->a acquisition order.
step "TSan: concurrency-heavy tests + planted lock-order inversion"
configure_and_build build-tsan "thread" \
    --target test_concurrent test_pipeline test_sanitizer_stress \
             test_shuffle test_scheduler test_tenancy test_alloc_budget \
             lock_order_inversion
ctest --test-dir "$ROOT/build-tsan" \
      -R 'concurrent|pipeline|sanitizer_stress|shuffle|scheduler|tenancy|alloc_budget|lock_order_inversion' \
      --output-on-failure -j "$JOBS"

run_tidy

step "full gate PASSED"
summary
