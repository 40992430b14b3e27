#!/usr/bin/env bash
# One-stop local static analysis: the same two passes CI's analyze.yml
# runs, in the same scopes, against an existing build tree.
#
#   1. pamo_analyze  every repo-native rule (per-file rules and cross-file
#                    analyses) over src tests bench examples tools
#   2. clang-tidy    curated .clang-tidy profile over the compile database
#                    (skipped with a note when run-clang-tidy is absent)
#
# usage: scripts/run_static_analysis.sh [build-dir]   (default: build)
set -eu

BUILD=${1:-build}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

[ -d "$BUILD" ] || { echo "error: build dir '$BUILD' not found (configure with cmake first)" >&2; exit 2; }

cmake --build "$BUILD" -j "$(nproc)" --target pamo_analyze

status=0

echo "== pamo_analyze =="
"$BUILD"/tools/pamo_analyze src tests bench examples tools || status=1

echo "== clang-tidy =="
if command -v run-clang-tidy >/dev/null 2>&1; then
  if [ -f "$BUILD"/compile_commands.json ]; then
    run-clang-tidy -quiet -p "$BUILD" "$ROOT/(src|tools)/.*\.cpp$" || status=1
  else
    echo "skipped: $BUILD/compile_commands.json missing (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"
  fi
else
  echo "skipped: run-clang-tidy not installed"
fi

if [ "$status" -ne 0 ]; then
  echo "static analysis FAILED" >&2
else
  echo "static analysis clean"
fi
exit "$status"
