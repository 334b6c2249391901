#!/usr/bin/env sh
# Run clang-tidy over the sources using the compilation database that every
# CMake preset exports (CMAKE_EXPORT_COMPILE_COMMANDS).  Exits 0 with a
# notice when clang-tidy is not installed so CI images without LLVM still
# pass the gate; the checks themselves live in .clang-tidy.
#
# Usage: scripts/run_clang_tidy.sh [build-dir]
#   build-dir   directory holding compile_commands.json (default: build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "run_clang_tidy: clang-tidy not found; skipping (install LLVM to enable)" >&2
    exit 0
fi

if [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "run_clang_tidy: $build_dir/compile_commands.json missing;" >&2
    echo "  configure first, e.g.: cmake --preset default" >&2
    exit 1
fi

# Project sources only — third-party and generated code are out of scope.
files=$(find "$repo_root/src" -name '*.cpp' | sort)

# --warnings-as-errors promotes every enabled check to an error: clang-tidy
# otherwise exits 0 on findings, which would let violations through the gate.
status=0
for f in $files; do
    clang-tidy -p "$build_dir" --quiet --warnings-as-errors='*' "$f" \
        || status=1
done

if [ "$status" -ne 0 ]; then
    echo "run_clang_tidy: violations found (see above)" >&2
fi
exit "$status"
