#!/usr/bin/env python3
"""Compare two saved outputs of the service-epoch benchmark.

    python3 perfbench/compare.py BASE.out CHANGE.out

Each file holds the standard output of one `perfbench/run.py` call. The
comparison refuses (exit 2) when the two runs were not taken under the same
conditions: another workload, trace mode, pinned worker count, nproc,
build type, or amount of work (lineages, epochs). It prints every metric of
the full record with its change relative to BASE.
"""
import json
import sys

MUST_MATCH = ("workload", "trace", "workers", "nproc", "build_type",
              "lineages", "epochs")


def load(path):
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{") and '"record"' in line:
                return json.loads(line)
    sys.exit(f"compare: no benchmark record in {path}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    rb, rc = base["record"], change["record"]
    differ = [k for k in MUST_MATCH if rb.get(k) != rc.get(k)]
    if differ:
        for k in differ:
            print(f"compare: refusing, {k} differs: {rb.get(k)} vs {rc.get(k)}",
                  file=sys.stderr)
        sys.exit(2)
    if rb.get("compiler") != rc.get("compiler"):
        print(f"compare: note, compilers differ: {rb.get('compiler')} vs "
              f"{rc.get('compiler')}", file=sys.stderr)
    print(f"{'metric':34s} {'unit':8s} {'base':>14s} {'change':>14s} {'delta':>8s}")
    for name, b in base["metrics"].items():
        c = change["metrics"].get(name)
        if c is None:
            continue
        bv, cv = b["value"], c["value"]
        delta = f"{cv / bv - 1:+.1%}" if bv else "n/a"
        print(f"{name:34s} {b['unit']:8s} {bv:14.6g} {cv:14.6g} {delta:>8s}")


if __name__ == "__main__":
    main()
