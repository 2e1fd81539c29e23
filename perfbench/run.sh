#!/usr/bin/env bash
# Builds the runtime benchmark from this checkout, then runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload train --seed 7 --seconds 33 --trace 0
#
# Build output goes to stderr and to .bench_build/ at the checkout root, so the
# last line on stdout is the benchmark's JSON result. The build fails, and the
# script exits non-zero without a result, when the library sources are absent.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target afl_benchmark -j "$jobs" >&2

# Only a checkout that is itself a git work tree is described; git would
# otherwise report whatever repository encloses the checkout directory.
describe="not a git checkout"
if [ -e "$root/.git" ]; then
  describe="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"
fi
export BENCH_GIT_DESCRIBE="$describe"

exec "$build/afl_benchmark" "$@"
