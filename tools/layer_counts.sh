#!/usr/bin/env bash
# Write the benchmark's per-layer counts to OUTDIR, so that two checkouts
# can be compared with `diff -r OUTDIR_A OUTDIR_B`.
#
# Usage: tools/layer_counts.sh OUTDIR [CHECKOUT]
#
# CHECKOUT defaults to the checkout that holds this script.  For each
# workload of perfbench/run.py, runs
# `python3 perfbench/run.py --workload W --seed 0 --trace 1` in CHECKOUT
# and writes OUTDIR/W.counts: the metrics whose unit is "count", one
# `name value` per line, sorted by name.  Timers and ratios are left out,
# since they differ from run to run.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 OUTDIR [CHECKOUT]" >&2
    exit 2
fi
root=$(cd "${2:-$(dirname "$0")/..}" && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

for workload in dense-index sparse-scale planted-deep; do
    (cd "$root" && python3 perfbench/run.py --workload "$workload" --seed 0 --trace 1) \
        | tail -n 1 \
        | python3 -c '
import json, sys
metrics = json.loads(sys.stdin.read())["metrics"]
for name in sorted(metrics):
    if metrics[name]["unit"] == "count":
        print(name, repr(metrics[name]["value"]))
' > "$out/$workload.counts"
done
