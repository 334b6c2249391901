#!/usr/bin/env sh
# One-shot static-analysis + test gate: everything a reviewer should run
# before merging.  Fails fast on the first broken stage.
#
#   1. strict build        -Wall -Wextra -Werror over the whole tree (every
#                          build already poisons raw file I/O, errors on a
#                          dropped [[nodiscard]] status, keeps the bp seam
#                          and compiles every src/ header on its own; see
#                          README "Static analysis")
#   2. thread-safety       clang -Wthread-safety (plain build + notice
#                          when the toolchain is GCC-only)
#   3. clang-tidy          bugprone/performance/concurrency profile, with
#                          --warnings-as-errors so findings fail the gate
#                          (no-op without clang-tidy installed)
#   4. stream suite        engine factory + miniSST lifecycle/policy tests
#                          (ctest -L stream; the same tests also carry the
#                          `concurrency` label for the TSan preset, and the
#                          fan-out sweep is scripts/bench_report.sh ->
#                          BENCH_stream.json)
#   5. topo suite          topology/aggregation + event-driven scheduler
#                          tests (ctest -L topo), then the same label under
#                          ThreadSanitizer (ctest --preset tsan-topo), the
#                          stream suite too (ctest --preset tsan-stream),
#                          and every resilience and concurrency test (ctest
#                          --preset tsan-recovery): TSan's deadlock detector
#                          is the lock-order check, and that preset also
#                          runs its seeded-inversion test; the rank sweep is
#                          scripts/bench_report.sh -> BENCH_topo.json
#   6. ckpt suite          incremental-checkpoint tests (delta cadence,
#                          dedup, chain restore, block tiling, retention
#                          pinning, prune crash-window scrub; ctest -L
#                          ckpt), then every resilience and concurrency
#                          test under ASan+UBSan (ctest --preset
#                          san-recovery, a superset of the ckpt label: every
#                          restore caller reads through the one
#                          core::CheckpointSource); then the
#                          recovery_overhead benchmark, whose in-band gate
#                          requires every crashed run to shrink, complete
#                          and report recoveries == 1 from the one home of
#                          that count (resil::ResilienceStats, as written
#                          to resilience.json); the stream suite under
#                          ASan+UBSan (ctest --preset san-stream); then the
#                          ckpt_sweep benchmark, whose in-band gates
#                          require every delta sweep to dedup, every
#                          restore to be bit-exact and every faulted cell
#                          to fall back
#                          (the committed report is scripts/bench_report.sh
#                          -> BENCH_ckpt.json)
#   7. iopath suite        batched queue-pair differential tests (byte
#                          identity vs the per-op writer, CZP1 + two-level
#                          composition, Darshan batch counters; ctest -L
#                          iopath), then the iopath_sweep benchmark whose
#                          in-band sanity gate requires batching to beat
#                          the per-op path at 64+ ranks and the coalesced
#                          path to reach >= 2x (the committed report is
#                          scripts/bench_report.sh -> BENCH_iopath.json)
#   8. perfbench build     perfbench/ configured as its own CMake project
#                          (as perfbench/run.py builds it) in build-perfbench/;
#                          builds perfbench and perfbench_tests and runs the
#                          tests, so a change to the types the benchmark
#                          compiles against cannot break it unnoticed
#   9. full test suite     default preset, all labels (includes the `perf`
#                          label — the codec smoke test, bp_alloc_test,
#                          whose counting operator new gates the synthetic
#                          chunk path at fewer heap allocations than
#                          chunks, and fsim_alloc_test, which gates the
#                          trace replay of 4,096 clients at fewer heap
#                          allocations than clients — and the
#                          `compile-fail` fixtures; the
#                          full codec sweep is scripts/bench_report.sh ->
#                          BENCH_codecs.json)
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

step "clang-tidy (skips without LLVM)"
cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc 2>/dev/null || echo 4)"
"$repo_root/scripts/run_clang_tidy.sh" "$repo_root/build"

step "stream engine suite (ctest -L stream)"
ctest --preset stream

step "topology + scheduler suite (ctest -L topo)"
ctest --preset topo

step "topology suite under ThreadSanitizer (ctest --preset tsan-topo)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$(nproc 2>/dev/null || echo 4)"
ctest --preset tsan-topo

step "stream engine suite under ThreadSanitizer (ctest --preset tsan-stream)"
ctest --preset tsan-stream

step "resilience + concurrency under ThreadSanitizer (ctest --preset tsan-recovery)"
ctest --preset tsan-recovery

step "incremental-checkpoint suite (ctest -L ckpt)"
ctest --preset ckpt

step "resilience + concurrency under ASan+UBSan (ctest --preset san-recovery)"
cmake --preset san >/dev/null
cmake --build --preset san -j "$(nproc 2>/dev/null || echo 4)"
ctest --preset san-recovery

step "online-recovery gate (recovery_overhead)"
cmake --build --preset default -j "$(nproc 2>/dev/null || echo 4)" \
  --target recovery_overhead
"$repo_root/build/bench/recovery_overhead" >/dev/null

step "stream engine suite under ASan+UBSan (ctest --preset san-stream)"
ctest --preset san-stream

step "incremental-checkpoint sweep gate (ckpt_sweep)"
cmake --build --preset default -j "$(nproc 2>/dev/null || echo 4)" \
  --target ckpt_sweep
"$repo_root/build/bench/ckpt_sweep" >/dev/null

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
