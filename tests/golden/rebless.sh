#!/bin/sh
# Regenerates the golden outputs of the paper benches: every bench binary
# but bench_micro_sim (which prints wall-clock timings) runs at
# AGINGSIM_BENCH_OPS=800 and its stdout becomes tests/golden/<name>.out.
# The `golden` ctest label (tests/CMakeLists.txt) byte-compares against
# these files. A rebless must name each changed file, and why it changed,
# in CHANGES.md.
#
# usage: tests/golden/rebless.sh [BUILD_DIR]   (default: build)
set -eu
build=${1:-build}
here=$(cd "$(dirname "$0")" && pwd)
found=0
for bench in "$build"/bench/bench_*; do
  name=$(basename "$bench")
  [ "$name" = bench_micro_sim ] && continue
  [ -x "$bench" ] || continue
  env -u AGINGSIM_CHAOS -u AGINGSIM_CHECKPOINT_DIR AGINGSIM_BENCH_OPS=800 \
    "$bench" > "$here/$name.out"
  found=$((found + 1))
done
[ "$found" -gt 0 ] || { echo "rebless: no bench binaries under $build/bench" >&2; exit 1; }
echo "rebless: wrote $found golden files to $here"
