#!/usr/bin/env sh
# Regenerate the machine-dependent benchmark reports at the repo root:
#
#   BENCH_codecs.json   micro_codecs threads x block-size sweep of the
#                       block-parallel compression pipeline (compress /
#                       decompress MB/s, ratio, determinism + round-trip
#                       checks, and the headline speedup vs the frozen seed
#                       kernel)
#   BENCH_topo.json     topo_sweep flat vs two-level aggregation curves at
#                       1K/10K/50K simulated ranks on the Dardel hierarchy
#                       (GiB/s, gathered bytes).  The sweep's sanity gate
#                       is in-band: two-level must not lose to flat at
#                       >= 10K ranks on >= 16 ranks/node, and a violation
#                       fails this script.
#   BENCH_ckpt.json     ckpt_sweep full-vs-delta checkpoint sweep across
#                       checkpoint_full_interval, clean and with a rotted
#                       newest epoch (bytes stored, dedup savings, chain
#                       restore outcome).  Sanity gates are in-band: every
#                       restore must land bit-exactly, delta sweeps must
#                       not store more than the all-full sweep, and every
#                       faulted cell must fall back and still recover — a
#                       violation fails this script.
#   BENCH_iopath.json   iopath_sweep per-op vs batched vs batched+coalesced
#                       step-write replay at 64/128/256 ranks on the Dardel
#                       profile (step time, GiB/s, trace record counts,
#                       coalesced bytes).  Sanity gates are in-band:
#                       batching must never lose to the per-op path, the
#                       coalesced path must reach >= 2x per-op throughput
#                       at every scale, and a real-payload batched
#                       container must stay byte-identical to the per-op
#                       writer's — a violation fails this script.
#
# Numbers are machine-dependent; the committed files record the box the
# report was last generated on.
#
#   scripts/bench_report.sh [build-dir]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -S "$repo_root" -B "$build_dir" >/dev/null
cmake --build "$build_dir" --target micro_codecs topo_sweep ckpt_sweep \
  iopath_sweep -j "$(nproc 2>/dev/null || echo 4)"

"$build_dir/bench/micro_codecs" --json > "$repo_root/BENCH_codecs.json"
printf 'wrote %s\n' "$repo_root/BENCH_codecs.json"

"$build_dir/bench/topo_sweep" --json > "$repo_root/BENCH_topo.json"
printf 'wrote %s\n' "$repo_root/BENCH_topo.json"

"$build_dir/bench/ckpt_sweep" --json > "$repo_root/BENCH_ckpt.json"
printf 'wrote %s\n' "$repo_root/BENCH_ckpt.json"

"$build_dir/bench/iopath_sweep" --json > "$repo_root/BENCH_iopath.json"
printf 'wrote %s\n' "$repo_root/BENCH_iopath.json"
