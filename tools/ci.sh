#!/usr/bin/env bash
# CI matrix driver. Runs one leg (./tools/ci.sh <leg>) or, with no
# argument, every leg in sequence. Legs that need a tool the host lacks
# (clang++, clang-tidy) skip with a notice instead of failing, so the
# script is useful both in CI images with the full toolchain and on
# gcc-only dev boxes.
#
# Legs:
#   lint           tools/lint.sh banned-API checks (no compiler needed)
#   lint-self-test tools/lint.sh --self-test seeded-violation check (every
#                  lint check must fire on a deliberately bad tree)
#   check-parsers  tools/check_parsers.sh corruption-contract checks over
#                  the audited untrusted-byte parsers (no compiler needed)
#   check-lock-io  tools/check_lock_io.py interprocedural lock/blocking-I/O
#                  analyzer + its --self-test (needs python3; skips without)
#   check-resource-flow
#                  tools/check_resource_flow.py interprocedural
#                  resource-leak / status-drop analyzer over src/, plus the
#                  shared-frontend unit tests (tools/test_cpp_frontend.py).
#                  Needs python3; skips without.
#   resource-flow-self-test
#                  tools/check_resource_flow.py --self-test: every analyzer
#                  rule must fire on a deliberately leaky seeded tree
#                  (needs python3; skips without)
#   gcc            g++ RelWithDebInfo, -Werror, full ctest
#   clang-tsa      clang++ with -Wthread-safety -Werror + the seeded
#                  compile-fail check (tools/check_thread_safety.sh)
#   clang-tidy     clang-tidy over src/ using .clang-tidy
#   tsan           ThreadSanitizer build + full ctest
#   tsan-obs       ThreadSanitizer build, observability tests only (fast
#                  race check over the PerfContext/StatsRegistry/listener
#                  counter paths, compaction_test's lazily opened merge
#                  inputs, subcompactions and incremental installs, plus
#                  property_test's background rows; subset of `tsan`)
#   asan-ubsan     Address+UB sanitizer builds + full ctest
#   fuzz-smoke     libFuzzer harnesses (LSMLAB_FUZZ build, clang only),
#                  10k runs per target from the checked-in seed corpora
#   perfbench-smoke
#                  perfbench/run.py --selftest, then --smoke: every
#                  benchmark workload, small, traced and not, so an engine
#                  change that breaks the benchmark's answer checks or its
#                  counter reconciliations fails CI (needs python3; skips
#                  without)
#
# Each leg builds in its own directory (build-ci-<leg>); sanitized and
# unsanitized objects never mix.

set -eu
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

have() { command -v "$1" >/dev/null 2>&1; }

build_and_test() {
  # $1 = build dir, remaining = extra cmake args
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

leg_lint() {
  ./tools/lint.sh
}

leg_lint_self_test() {
  ./tools/lint.sh --self-test
}

leg_check_parsers() {
  ./tools/check_parsers.sh
}

leg_check_lock_io() {
  local py="${PYTHON:-python3}"
  if ! have "$py"; then
    echo "ci[check-lock-io]: SKIP ($py not found)"
    return 0
  fi
  "$py" tools/check_lock_io.py --self-test
  "$py" tools/check_lock_io.py
}

leg_check_resource_flow() {
  local py="${PYTHON:-python3}"
  if ! have "$py"; then
    echo "ci[check-resource-flow]: SKIP ($py not found)"
    return 0
  fi
  "$py" tools/test_cpp_frontend.py
  "$py" tools/check_resource_flow.py
}

leg_resource_flow_self_test() {
  local py="${PYTHON:-python3}"
  if ! have "$py"; then
    echo "ci[resource-flow-self-test]: SKIP ($py not found)"
    return 0
  fi
  "$py" tools/check_resource_flow.py --self-test
}

leg_gcc() {
  local cxx="${CXX_GCC:-g++}"
  if ! have "$cxx"; then
    echo "ci[gcc]: SKIP ($cxx not found)"
    return 0
  fi
  CXX="$cxx" build_and_test build-ci-gcc \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLSMLAB_WERROR=ON
}

leg_clang_tsa() {
  local cxx="${CLANGXX:-clang++}"
  if ! have "$cxx"; then
    echo "ci[clang-tsa]: SKIP ($cxx not found)"
    return 0
  fi
  ./tools/check_thread_safety.sh
  CXX="$cxx" build_and_test build-ci-clang \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLSMLAB_WERROR=ON \
      -DLSMLAB_THREAD_SAFETY=ON
}

leg_clang_tidy() {
  local tidy="${CLANG_TIDY:-clang-tidy}"
  if ! have "$tidy"; then
    echo "ci[clang-tidy]: SKIP ($tidy not found)"
    return 0
  fi
  # compile_commands.json gives clang-tidy the real include paths/flags.
  cmake -B build-ci-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src -name '*.cc' | sort | xargs "$tidy" -p build-ci-tidy --quiet
}

leg_tsan() {
  # Debug keeps assert()/holder tracking live under the race detector.
  build_and_test build-ci-tsan \
      -DCMAKE_BUILD_TYPE=Debug -DLSMLAB_SANITIZE=thread
}

leg_tsan_obs() {
  # The counter/listener paths are the hot spots for new races: thread-local
  # PerfContext folded into atomic tickers, events staged under mu_ and
  # fired after release, deletions queued from VersionSet cleanups, the
  # group-commit writer queue (leader WAL I/O with mu_ released), the
  # concurrent memtable (lock-free skiplist inserts + parallel group apply),
  # the sharded router (parallel batch fan-out over a shared background
  # pool), the value log's unsynced state (writers append while leaders
  # and the flush worker sync it), and compaction inputs (a background merge opens its input tables
  # lazily, run by run, through the TableCache readers share). Run just
  # those suites (plus the general concurrency one) under TSan for a quick
  # signal; the full `tsan` leg still covers everything.
  cmake -B build-ci-tsan -S . \
      -DCMAKE_BUILD_TYPE=Debug -DLSMLAB_SANITIZE=thread >/dev/null
  cmake --build build-ci-tsan -j "$JOBS"
  ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
      -R 'perf_context_test|listener_test|concurrency_test|crash_test|multiget_test|memtable_test|write_group_test|sharded_db_test|vlog_test'
  # The model checker's background rows (its Get and MultiGet actions run
  # next to background flushes and compactions) and its sharded row
  # (MultiGet and batches fan out on the router's dispatch pool).
  GTEST_FILTER='*background*:*sharded*' ctest --test-dir build-ci-tsan \
      --output-on-failure -R property_test
  # Background run merges: input tables open mid-merge on the worker and
  # its subcompaction helpers while readers open and probe tables through
  # the same TableCache. Subcompactions: helper threads building one
  # merge's subranges, with the serial merge as the reference, over a
  # corrupt input, and without filling the block cache. Installs: any
  # thread of the merge, the calling one or a helper, installs finished
  # subranges while the others build and readers scan, Get and MultiGet
  # the trees between installs, and an iterator pins one of them. (The other inline
  # shape tests add minutes under TSan and no threads; crash_test above
  # already runs the failed-subcompaction and CompactAll kill-point
  # sweeps.) Moves: a move install next to iterators and snapshots that
  # pinned the tree before it, and the consistency check every install
  # runs in this Debug build. The compaction job's own tests run its
  # helper threads against a fake install hook (CompactionJobTest). Table
  # opens: two subranges that reach one table wait for one open
  # (*AnyThreadCount*).
  GTEST_FILTER='*Background*:*Subcompaction*:*Install*:*Move*:*Consistency*:CompactionJob*:*AnyThreadCount*' \
      ctest --test-dir build-ci-tsan --output-on-failure -R compaction_test
  GTEST_FILTER='*Subrange*' ctest --test-dir build-ci-tsan \
      --output-on-failure -R corruption_test
  # The memtable's arena: any number of threads bump one block with a CAS
  # and refill under blocks_mu_. (sharded_db_test above runs the
  # many-shard parallel-apply flush test over the same arena.)
  GTEST_FILTER='Arena*' ctest --test-dir build-ci-tsan \
      --output-on-failure -R util_test
  GTEST_FILTER='CompactionRead*' ctest --test-dir build-ci-tsan \
      --output-on-failure -R cache_test
}

leg_asan_ubsan() {
  build_and_test build-ci-asan \
      -DCMAKE_BUILD_TYPE=Debug -DLSMLAB_SANITIZE=address
  build_and_test build-ci-ubsan \
      -DCMAKE_BUILD_TYPE=Debug -DLSMLAB_SANITIZE=undefined
}

leg_fuzz_smoke() {
  local cxx="${CLANGXX:-clang++}"
  if ! have "$cxx"; then
    echo "ci[fuzz-smoke]: SKIP ($cxx not found; libFuzzer is clang-only)"
    return 0
  fi
  CXX="$cxx" cmake -B build-ci-fuzz -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLSMLAB_FUZZ=ON >/dev/null
  cmake --build build-ci-fuzz -j "$JOBS"
  local runs="${FUZZ_RUNS:-10000}"
  local target
  for target in fuzz_block fuzz_sstable fuzz_wal_record fuzz_version_edit \
                fuzz_write_batch fuzz_filter; do
    echo "-- $target ($runs runs)"
    "./build-ci-fuzz/fuzz/$target" "fuzz/corpora/$target" \
        -runs="$runs" -max_total_time=120 -print_final_stats=0
  done
}

leg_perfbench_smoke() {
  local py="${PYTHON:-python3}"
  if ! have "$py"; then
    echo "ci[perfbench-smoke]: SKIP ($py not found)"
    return 0
  fi
  "$py" perfbench/run.py --selftest
  "$py" perfbench/run.py --smoke
}

run_leg() {
  echo "=== ci leg: $1 ==="
  case "$1" in
    lint)          leg_lint ;;
    lint-self-test) leg_lint_self_test ;;
    check-parsers) leg_check_parsers ;;
    check-lock-io) leg_check_lock_io ;;
    check-resource-flow) leg_check_resource_flow ;;
    resource-flow-self-test) leg_resource_flow_self_test ;;
    gcc)           leg_gcc ;;
    clang-tsa)     leg_clang_tsa ;;
    clang-tidy)    leg_clang_tidy ;;
    tsan)          leg_tsan ;;
    tsan-obs)      leg_tsan_obs ;;
    asan-ubsan)    leg_asan_ubsan ;;
    fuzz-smoke)    leg_fuzz_smoke ;;
    perfbench-smoke) leg_perfbench_smoke ;;
    *)
      echo "unknown leg '$1' (legs: lint lint-self-test check-parsers check-lock-io check-resource-flow resource-flow-self-test gcc clang-tsa clang-tidy tsan tsan-obs asan-ubsan fuzz-smoke perfbench-smoke)" >&2
      return 2
      ;;
  esac
}

if [ "$#" -ge 1 ]; then
  run_leg "$1"
else
  for leg in lint lint-self-test check-parsers check-lock-io \
             check-resource-flow resource-flow-self-test \
             gcc clang-tsa clang-tidy tsan asan-ubsan fuzz-smoke \
             perfbench-smoke; do
    run_leg "$leg"
  done
  echo "=== ci: all legs done ==="
fi
