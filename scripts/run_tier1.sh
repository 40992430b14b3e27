#!/usr/bin/env bash
# Tier-1 verification, split by ctest label lane:
#
#   unit + integration   always run (the default lane, `-LE slow`)
#   slow                 the randomized fleet sweep + anything else marked
#                        slow; included with --with-slow (CI runs it on
#                        the fleet-smoke, tsan and asan-ubsan jobs)
#
# usage: scripts/run_tier1.sh [--with-slow] [build-dir]   (default: build)
set -eu

WITH_SLOW=0
BUILD=build
for arg in "$@"; do
  case "$arg" in
    --with-slow) WITH_SLOW=1 ;;
    *) BUILD=$arg ;;
  esac
done

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc)"

echo "== ctest (unit + integration) =="
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -LE slow

if [ "$WITH_SLOW" -eq 1 ]; then
  echo "== ctest (slow) =="
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -L slow
fi
