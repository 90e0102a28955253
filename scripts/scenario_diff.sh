#!/usr/bin/env bash
# Check that two builds score every deterministic scenario pack the same.
#
# Each scenarios/*.scn pack without a [host] section (host packs sample the
# live machine, so no two runs agree) runs through
# `resmon scenario run PACK --metrics-out` with both builds; the
# resmon_scenario_* lines of the two exports must be byte-identical. The
# first pack whose run fails or whose lines differ is named and the script
# exits 1. Use it to show a refactor leaves results unchanged: build the
# base commit in its own checkout (the verify skill has the recipe) and
# pass both build directories.
#
# Usage: scripts/scenario_diff.sh BASE_BUILD BUILD [SCENARIO_DIR]
set -euo pipefail

USAGE="usage: scenario_diff.sh BASE_BUILD BUILD [SCENARIO_DIR]"
BASE_BUILD=${1:?$USAGE}
BUILD=${2:?$USAGE}
SCENARIO_DIR=${3:-"$(dirname "$0")/../scenarios"}

for build in "$BASE_BUILD" "$BUILD"; do
  [ -x "$build/tools/resmon" ] || { echo "missing $build/tools/resmon" >&2; exit 2; }
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Writes PACK's resmon_scenario_* lines under BUILD to OUT.
scenario_lines() {
  local build=$1 pack=$2 out=$3
  if ! "$build/tools/resmon" scenario run "$pack" \
      --metrics-out "$WORK/metrics.prom" > "$WORK/run.log" 2>&1; then
    cat "$WORK/run.log" >&2
    echo "FAIL: $(basename "$pack"): run failed under $build" >&2
    exit 1
  fi
  grep '^resmon_scenario_' "$WORK/metrics.prom" > "$out" || {
    echo "FAIL: $(basename "$pack"): no resmon_scenario_ lines under $build" >&2
    exit 1
  }
}

shopt -s nullglob
compared=0
for pack in "$SCENARIO_DIR"/*.scn; do
  name=$(basename "$pack")
  if grep -Eq '^[[:space:]]*\[host\]' "$pack"; then
    echo "skip $name (host pack)"
    continue
  fi
  scenario_lines "$BASE_BUILD" "$pack" "$WORK/base.txt"
  scenario_lines "$BUILD" "$pack" "$WORK/new.txt"
  if ! diff "$WORK/base.txt" "$WORK/new.txt" >&2; then
    echo "FAIL: $name: resmon_scenario_* lines differ" >&2
    exit 1
  fi
  echo "same $name ($(wc -l < "$WORK/new.txt") lines)"
  compared=$((compared + 1))
done
[ "$compared" -gt 0 ] || { echo "no packs to compare in $SCENARIO_DIR" >&2; exit 2; }
echo "OK: $compared scenario packs identical"
