#!/usr/bin/env bash
# Run the benchmark in two checkouts in alternating pairs and write the
# per-metric medians, quartiles and runs of both sides to OUT.json.
#
# Usage: tools/bench_pairs.sh PARENT CHANGE OUT.json [PAIRS]
#
# For each workload of CHANGE/BENCHMARK.json and each seed S in
# 0..PAIRS-1 (PAIRS defaults to 10), runs
# `python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0`
# (the command and seconds that BENCHMARK.json gives) once in PARENT and
# once in CHANGE, one process at a time; PARENT runs first on even seeds.
# OUT.json holds, per workload, the seeds, the operations attempted and
# failed per run, and per end-to-end metric each side's median, q1, q3
# (inclusive quartiles) and runs, the pairs the change won (by the
# metric's "better" direction) and the change/parent median ratio.
# Exits 1 if any run fails: a run that exits non-zero stops the tool at
# once, and one that reports failed operations is written out first.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT CHANGE OUT.json [PAIRS]" >&2
    exit 2
fi
for checkout in "$1" "$2"; do
    if [ ! -f "$checkout/BENCHMARK.json" ] || [ ! -d "$checkout/perfbench" ]; then
        echo "$0: $checkout has no BENCHMARK.json and perfbench/" >&2
        exit 2
    fi
done

python3 - "$1" "$2" "$3" "${4:-10}" <<'EOF'
import json
import statistics
import subprocess
import sys
from pathlib import Path

parent, change, out, pairs = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4])
spec = json.loads((change / "BENCHMARK.json").read_text())
seconds = spec["run_seconds"]
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
sides = {"parent": parent, "change": change}


def run(side, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    print(f"{side} {workload} seed {seed}", file=sys.stderr, flush=True)
    done = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{side} {workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(r, 6) for r in runs]}


report = {
    "command": " ".join(spec["command"])
               + f" --workload W --seed S --seconds {seconds} --trace 0",
    "order": "one process at a time; parent first on even seeds",
    "workloads": {},
}
failed_any = False
for w in spec["workloads"]:
    workload = w["name"]
    seeds = list(range(pairs))
    results = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run(side, workload, seed))
    entry = {
        "seeds": seeds,
        "attempted_per_run": {s: [r["attempted"] for r in rs] for s, rs in results.items()},
        "failed_per_run": {s: [r["failed"] for r in rs] for s, rs in results.items()},
        "metrics": {},
    }
    failed_any = failed_any or any(any(f) for f in entry["failed_per_run"].values())
    for name, direction in better.items():
        runs = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in results.items()}
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        m = entry["metrics"][name] = {s: summary(v) for s, v in runs.items()}
        m["change_better_pairs"] = won
        m["median_ratio"] = round(statistics.median(runs["change"])
                                  / statistics.median(runs["parent"]), 4)
    report["workloads"][workload] = entry
out.write_text(json.dumps(report, indent=2) + "\n")
sys.exit(1 if failed_any else 0)
EOF
