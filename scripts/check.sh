#!/usr/bin/env sh
# One-shot static-analysis + test gate: everything a reviewer should run
# before merging.  Fails fast on the first broken stage.
#
#   1. strict build        -Wall -Wextra -Werror over the whole tree
#   2. thread-safety       clang -Wthread-safety (plain build + notice
#                          when the toolchain is GCC-only)
#   3. bitio-analyzer      the semantic-index static analysis suite over
#                          src/, bench/, and examples/ (ctest -L lint, which
#                          also runs the analyzer's own fixture tests)
#   4. clang-tidy          bugprone/performance/concurrency profile, with
#                          --warnings-as-errors so findings fail the gate
#                          (no-op without clang-tidy installed)
#   5. stream suite        engine factory + miniSST lifecycle/policy tests
#                          (ctest -L stream; the same tests also carry the
#                          `concurrency` label for the TSan preset, and the
#                          fan-out sweep is scripts/bench_report.sh ->
#                          BENCH_stream.json)
#   6. topo suite          topology/aggregation + event-driven scheduler
#                          tests (ctest -L topo), then the same label under
#                          ThreadSanitizer (ctest --preset tsan-topo); the
#                          rank sweep is scripts/bench_report.sh ->
#                          BENCH_topo.json
#   7. ckpt suite          incremental-checkpoint tests (delta cadence,
#                          dedup, chain restore, retention pinning, prune
#                          crash-window scrub; ctest -L ckpt), then the
#                          same label under ASan+UBSan (ctest --preset
#                          san-ckpt); the full/delta sweep is
#                          scripts/bench_report.sh -> BENCH_ckpt.json
#   8. iopath suite        batched queue-pair differential tests (byte
#                          identity vs the per-op writer, CZP1 + two-level
#                          composition, Darshan batch counters; ctest -L
#                          iopath), then the iopath_sweep benchmark whose
#                          in-band sanity gate requires batching to beat
#                          the per-op path at 64+ ranks and the coalesced
#                          path to reach >= 2x (the committed report is
#                          scripts/bench_report.sh -> BENCH_iopath.json)
#   9. perfbench build     perfbench/ configured as its own CMake project
#                          (as perfbench/run.py builds it) in build-perfbench/;
#                          builds perfbench and perfbench_tests and runs the
#                          tests, so a change to the types the benchmark
#                          compiles against cannot break it unnoticed
#  10. full test suite     default preset, all labels (includes the `perf`
#                          smoke test; the full codec sweep is
#                          scripts/bench_report.sh -> BENCH_codecs.json)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

step() { printf '\n== %s ==\n' "$*"; }

step "strict build (-Werror)"
cmake --preset strict >/dev/null
cmake --build --preset strict -j "$(nproc 2>/dev/null || echo 4)"

step "thread-safety analysis (clang only)"
cmake --preset analyze >/dev/null
cmake --build --preset analyze -j "$(nproc 2>/dev/null || echo 4)"

step "bitio-analyzer + fixtures (ctest -L lint)"
cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc 2>/dev/null || echo 4)"
ctest --preset lint

step "clang-tidy (skips without LLVM)"
"$repo_root/scripts/run_clang_tidy.sh" "$repo_root/build"

step "stream engine suite (ctest -L stream)"
ctest --preset stream

step "topology + scheduler suite (ctest -L topo)"
ctest --preset topo

step "topology suite under ThreadSanitizer (ctest --preset tsan-topo)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$(nproc 2>/dev/null || echo 4)"
ctest --preset tsan-topo

step "incremental-checkpoint suite (ctest -L ckpt)"
ctest --preset ckpt

step "checkpoint suite under ASan+UBSan (ctest --preset san-ckpt)"
cmake --preset san >/dev/null
cmake --build --preset san -j "$(nproc 2>/dev/null || echo 4)"
ctest --preset san-ckpt

step "batched I/O path suite (ctest -L iopath)"
ctest --preset iopath

step "batched I/O path sweep gate (iopath_sweep)"
cmake --build --preset default -j "$(nproc 2>/dev/null || echo 4)" \
  --target iopath_sweep
"$repo_root/build/bench/iopath_sweep" >/dev/null

step "perfbench as its own CMake project (perfbench + perfbench_tests)"
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  >/dev/null
cmake --build build-perfbench -j "$(nproc 2>/dev/null || echo 4)" \
  --target perfbench perfbench_tests
ctest --test-dir build-perfbench --output-on-failure

step "full test suite"
ctest --preset default

printf '\ncheck.sh: all gates passed\n'
