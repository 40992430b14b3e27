#!/usr/bin/env bash
# Per-epoch decision digests of this checkout against git revision REV.
#
# Exports REV with `git archive` into a temporary directory (no network,
# no worktree), then runs `perfbench/run.py --trace 1 --seconds 5` for
# every workload at seeds 1-3 in both trees; each tree builds its own
# perfbench under its .bench_build/. Every traced epoch carries the digest
# of its decision, so a change that leaves decisions alone leaves the two
# digest sequences equal. Prints one line per (workload, seed) and exits 1
# when any sequence differs or any run fails. Reads nothing under
# perfbench/ but run.py's output, and writes nothing there.
#
# usage: scripts/compare_digests.sh REV [workload ...]
#        (default workloads: those BENCHMARK.json declares)
set -eu

REV=${1:?usage: compare_digests.sh REV [workload ...]}
shift
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

if [ "$#" -gt 0 ]; then
  WORKLOADS=("$@")
else
  mapfile -t WORKLOADS < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi
SEEDS=(1 2 3)

OTHER=$(mktemp -d "${TMPDIR:-/tmp}/compare_digests.XXXXXX")
trap 'rm -rf "$OTHER"' EXIT
git archive "$REV" | tar -x -C "$OTHER"
echo "== $REV exported to $OTHER" >&2

# run TREE WORKLOAD SEED OUT: one traced run; its digests go to OUT.
run() {
  (cd "$1" && python3 perfbench/run.py --workload "$2" --seed "$3" \
      --seconds 5 --trace 1) > "$4.raw" 2> "$4.log" || return 1
  python3 - "$4.raw" > "$4" <<'EOF'
import json, sys
record = json.loads(open(sys.argv[1]).read().splitlines()[-2])
for epoch in record["epochs"]:
    print(epoch["digest"])
EOF
}

status=0
for workload in "${WORKLOADS[@]}"; do
  for seed in "${SEEDS[@]}"; do
    base="$OTHER/digests.$workload.$seed"
    if ! run "$OTHER" "$workload" "$seed" "$base.rev" ||
       ! run "$ROOT" "$workload" "$seed" "$base.here"; then
      echo "$workload seed $seed: run failed"
      tail -n 5 "$base".*.log >&2 || true
      status=1
      continue
    fi
    epochs=$(wc -l < "$base.here")
    if cmp -s "$base.rev" "$base.here"; then
      echo "$workload seed $seed: $epochs epochs, digests equal"
    else
      first=$(paste -d ' ' "$base.rev" "$base.here" |
              awk '$1 != $2 {print NR - 1; exit}')
      echo "$workload seed $seed: DIFFER ($(wc -l < "$base.rev") vs" \
           "$epochs epochs, first at epoch ${first:-?})"
      status=1
    fi
  done
done
exit "$status"
