#!/usr/bin/env bash
# Compare the byte-stable outputs and the per-layer counts of two checkouts.
#
# Usage: tools/compare_checkouts.sh PARENT CHANGE OUTDIR
#
# Runs CHANGE's tools/check_outputs.sh on each checkout into
# OUTDIR/parent/outputs and OUTDIR/change/outputs, and CHANGE's
# tools/layer_counts.sh into OUTDIR/parent/counts and OUTDIR/change/counts,
# so a case that CHANGE adds to its tools runs on both sides.  Prints
# `diff -r` of each pair of trees; then, for each runs or summary CSV that
# the two outputs trees hold with different bytes, one line naming the
# columns whose values differ (matched by header name, rows by position),
# the columns only one side has and, if they differ, both row counts; then
# each module's `tools/code_lines.sh` count and the total, counted by
# CHANGE's copy, as `parent change name` lines (`-` for a module one side
# lacks).  Exits 0 only when both pairs of trees are identical, 1 when
# either differs.
#
# layer_counts.sh runs perfbench's traced pass (`perfbench/run.py --trace 1`)
# in each checkout, which rewrites the git-ignored
# perfbench/out/spans-*.json files inside that checkout.  The checkouts are
# run one after the other, one process at a time.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 PARENT CHANGE OUTDIR" >&2
    exit 2
fi
for tool in check_outputs.sh layer_counts.sh code_lines.sh; do
    if [ ! -f "$2/tools/$tool" ]; then
        echo "$0: $2 has no tools/$tool" >&2
        exit 2
    fi
done
for checkout in "$1" "$2"; do
    if [ ! -d "$checkout/src/homeomatch" ] || [ ! -f "$checkout/perfbench/run.py" ]; then
        echo "$0: $checkout has no src/homeomatch and perfbench/run.py" >&2
        exit 2
    fi
done
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)

for side in parent change; do
    checkout=${!side}
    rm -rf "${out:?}/$side"
    bash "$change/tools/check_outputs.sh" "$out/$side/outputs" "$checkout"
    bash "$change/tools/layer_counts.sh" "$out/$side/counts" "$checkout"
done

same=0
for tree in outputs counts; do
    echo "== diff -r parent/$tree change/$tree"
    diff -r "$out/parent/$tree" "$out/change/$tree" || same=1
done
echo "== CSV columns that differ: file, then moved / only parent / only change"
python3 - "$out/parent/outputs" "$out/change/outputs" <<'EOF'
import csv
import sys
from pathlib import Path

parent, change = Path(sys.argv[1]), Path(sys.argv[2])


def read(path):
    with path.open(newline="") as fh:
        rows = csv.DictReader(fh)
        return rows.fieldnames or [], list(rows)


for a in sorted(parent.glob("*.csv")):
    b = change / a.name
    if not b.is_file() or a.read_bytes() == b.read_bytes():
        continue
    (head_a, rows_a), (head_b, rows_b) = read(a), read(b)
    moved = [c for c in head_a if c in head_b
             and any(x[c] != y[c] for x, y in zip(rows_a, rows_b))]
    parts = [f"moved: {' '.join(moved) or '-'}"]
    for side, head, other in (("parent", head_a, head_b), ("change", head_b, head_a)):
        only = [c for c in head if c not in other]
        if only:
            parts.append(f"only {side}: {' '.join(only)}")
    if len(rows_a) != len(rows_b):
        parts.append(f"rows: {len(rows_a)} parent, {len(rows_b)} change")
    print(f"{a.name}  " + "  ".join(parts))
EOF
parent_lines=$(bash "$change/tools/code_lines.sh" "$parent")
change_lines=$(bash "$change/tools/code_lines.sh" "$change")
echo "== code lines: parent change module"
awk 'NR == FNR { parent[$2] = $1; if ($2 != "total") order[++n] = $2; next }
     { change[$2] = $1; if (!($2 in parent)) order[++n] = $2 }
     END {
         order[++n] = "total"
         for (k = 1; k <= n; k++) {
             m = order[k]
             printf "%6s %6s %s\n", (m in parent ? parent[m] : "-"), (m in change ? change[m] : "-"), m
         }
     }' <(echo "$parent_lines") <(echo "$change_lines")
exit "$same"
