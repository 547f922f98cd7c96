#!/usr/bin/env bash
# Compare the byte-stable outputs and the per-layer counts of two checkouts.
#
# Usage: tools/compare_checkouts.sh PARENT CHANGE OUTDIR
#
# Runs CHANGE's tools/check_outputs.sh on each checkout into
# OUTDIR/parent/outputs and OUTDIR/change/outputs, and CHANGE's
# tools/layer_counts.sh into OUTDIR/parent/counts and OUTDIR/change/counts,
# so a case that CHANGE adds to its tools runs on both sides.  Prints
# `diff -r` of each pair of trees, then the `tools/code_lines.sh` total of
# each checkout, counted by CHANGE's copy.  Exits 0 only when both pairs of
# trees are identical, 1 when either differs.
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
for side in parent change; do
    checkout=${!side}
    echo "== code lines, $side: $(bash "$change/tools/code_lines.sh" "$checkout" | tail -n 1)"
done
exit "$same"
