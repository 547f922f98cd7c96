"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavier
criteria (oracle equivalence over 500 instances, the scaling sweep, the
20-seed strategy comparison) take a couple of minutes combined.
"""

import json
import random
import statistics
import time

from homeomatch import (
    enumerate_all,
    ndshd1,
    ndshd2,
    plant_subdivision,
    random_labeled_graph,
)
from homeomatch.bench import ExperimentSpec, run_experiment
from homeomatch.cli import main
from homeomatch.oracle import bounded_simple_paths, brute_force_solve, verify_mapping
from homeomatch.pathindex import enumerate_paths

from conftest import DATA_DIR, EXPERIMENTS_DIR

PATTERN = str(DATA_DIR / "worked_pattern.graph")
DATA = str(DATA_DIR / "worked_data.graph")


def report(num, description, ok):
    print(f"\n[acceptance {num}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def test_acceptance_1_golden_example(worked_pattern, worked_data, worked_mapping):
    t0 = time.perf_counter()
    ok = True
    for fn in (ndshd1, ndshd2):
        witness = fn(worked_pattern, worked_data, 2, 2)
        ok = ok and witness is not None
        ok = ok and bool(verify_mapping(worked_pattern, worked_data, 2, 2, witness))
    keys = {m.canonical_key() for m in enumerate_all(worked_pattern, worked_data, 2, 2)}
    ok = ok and worked_mapping.canonical_key() in keys
    ok = ok and ndshd1(worked_pattern, worked_data, 3, 3) is None
    ok = ok and ndshd2(worked_pattern, worked_data, 3, 3) is None
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, f"golden worked example (true at (2,2) with valid witness, "
              f"documented mapping enumerated, false at (3,3)) in {elapsed:.3f}s", ok)


def _oracle_check(seed, draw_window):
    """(disagreed, bad witness count) of both strategies against the oracle.

    One random instance inside the oracle's guard; ``draw_window(rng)``
    draws its (l, h) window.
    """
    rng = random.Random(seed)
    n1 = rng.randint(2, 5)
    n2 = rng.randint(5, 12)
    labels = rng.randint(2, 5)
    l, h = draw_window(rng)
    # the [2, 4] average-degree band applies to the data graph; the
    # pattern density is clamped below its own vertex count
    g1 = random_labeled_graph(n1, rng.uniform(1.0, min(3.0, n1 - 1)) if n1 > 1 else 0,
                              labels, seed * 2 + 1)
    g2 = random_labeled_graph(n2, rng.uniform(2.0, 4.0), labels, seed * 2)
    expected = bool(brute_force_solve(g1, g2, l, h))
    w1 = ndshd1(g1, g2, l, h)
    w2 = ndshd2(g1, g2, l, h)
    disagreed = not (expected == (w1 is not None) == (w2 is not None))
    bad = sum(1 for w in (w1, w2) if w is not None and not verify_mapping(g1, g2, l, h, w))
    return disagreed, bad


def _wide_window(rng):
    """A window with l > 1, up to the oracle's h <= 4."""
    l = rng.randint(2, 3)
    return l, rng.randint(l, 4)


def test_acceptance_2_oracle_equivalence():
    t0 = time.perf_counter()
    disagreements = 0
    bad_witnesses = 0
    count, wide_count = 500, 300
    checks = [(seed, lambda rng: (1, rng.randint(1, 3))) for seed in range(count)]
    checks += [(10_000 + seed, _wide_window) for seed in range(wide_count)]
    for seed, draw_window in checks:
        disagreed, bad = _oracle_check(seed, draw_window)
        disagreements += disagreed
        bad_witnesses += bad
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and bad_witnesses == 0 and elapsed < 300
    report(2, f"oracle equivalence on {count} instances at l = 1 and {wide_count} "
              f"at l in {{2, 3}}, h <= 4 "
              f"({disagreements} disagreements, {bad_witnesses} bad witnesses, "
              f"{elapsed:.1f}s)", ok)


def _satisfiable_instances(target):
    """Small instances with at least one witness: planted plus filtered random."""
    out = []
    seed = 0
    while len(out) < target * 0.6:
        rng = random.Random(10_000 + seed)
        n1 = rng.randint(2, 4)
        pattern = random_labeled_graph(n1, min(1.5, n1 - 1), 3, seed)
        l = rng.randint(1, 2)
        h = min(2, l + rng.randint(0, 1))
        data = plant_subdivision(pattern, l, h, padding=rng.randint(0, 5), seed=seed)
        out.append((pattern, data, l, h))
        seed += 1
    seed = 0
    while len(out) < target:
        rng = random.Random(20_000 + seed)
        n1 = rng.randint(2, 4)
        pattern = random_labeled_graph(n1, min(1.5, n1 - 1), 3, seed + 7)
        data = random_labeled_graph(rng.randint(5, 10), rng.uniform(2.0, 3.5), 3, seed)
        seed += 1
        if ndshd2(pattern, data, 1, 2) is not None:
            out.append((pattern, data, 1, 2))
    return out


def test_acceptance_3_prune_soundness():
    instances = _satisfiable_instances(100)
    mismatches = 0
    for pattern, data, l, h in instances:
        oracle = {m.canonical_key() for m in brute_force_solve(pattern, data, l, h)}
        assert oracle, "instance generator produced an unsatisfiable instance"
        for strategy in ("ndshd1", "ndshd2"):
            got = {m.canonical_key()
                   for m in enumerate_all(pattern, data, l, h, strategy=strategy)}
            if got != oracle:
                mismatches += 1
    report(3, f"pruned enumeration with both strategies yields the oracle's witness set "
              f"on {len(instances)} satisfiable instances ({mismatches} mismatches)",
           mismatches == 0)


def test_acceptance_4_planted_completeness():
    failures = 0
    for seed in range(200):
        rng = random.Random(30_000 + seed)
        n1 = rng.randint(2, 6)
        pattern = random_labeled_graph(n1, min(2.5, n1 - 1) if n1 > 1 else 0,
                                       rng.randint(2, 4), seed)
        l = rng.randint(1, 2)
        h = min(3, l + rng.randint(0, 2))
        data = plant_subdivision(pattern, l, h, padding=rng.randint(0, 30), seed=seed)
        if ndshd1(pattern, data, l, h) is None or ndshd2(pattern, data, l, h) is None:
            failures += 1
    report(4, f"200 planted-subdivision instances all found by both strategies "
              f"({failures} misses)", failures == 0)


def test_acceptance_5_scalability_trend():
    # The times are a few milliseconds, so host noise moves a single run's
    # ratio a lot; each row's fastest of three runs of the same spec keeps
    # the noise out of the medians.
    spec = ExperimentSpec.load(EXPERIMENTS_DIR / "exp1_data_scale.json")
    runs = [run_experiment(spec)[0] for _ in range(3)]
    rows = runs[0]
    best = [min(r["setup_s"] + r["search_s"] for r in same) for same in zip(*runs)]
    ok = True
    details = []
    worst = 0.0
    for algo in ("ndshd1", "ndshd2"):
        medians = {}
        for point in (200, 2000):
            medians[point] = statistics.median(
                t for r, t in zip(rows, best) if r["algo"] == algo and r["sweep_value"] == point)
        ratio = medians[2000] / medians[200]
        details.append(f"{algo} {ratio:.1f}x")
        ok = ok and ratio < 20.0
    for run in runs:
        for r in run:
            total = r["setup_s"] + r["search_s"]
            worst = max(worst, total)
            ok = ok and r["outcome"] != "timeout" and total < 30.0
    report(5, "data-graph scaling sweep 200..2000 vertices, fastest of 3 runs per row: "
              f"median-time ratios [{', '.join(details)}] all < 20x, "
              f"worst run {worst:.2f}s < 30s", ok)


def test_acceptance_6_strategy_comparison():
    spec = ExperimentSpec.load(EXPERIMENTS_DIR / "strategy_stability.json")
    rows, _ = run_experiment(spec)
    stats = {}
    for algo in ("ndshd1", "ndshd2"):
        sub = [r for r in rows if r["algo"] == algo and r["outcome"] != "timeout"]
        stats[algo] = (statistics.median(r["recursion_calls"] for r in sub),
                       statistics.stdev(r["search_s"] for r in sub))
    calls_ok = stats["ndshd2"][0] <= stats["ndshd1"][0]
    std_ok = stats["ndshd2"][1] <= stats["ndshd1"][1]
    report(6, "interleaved strategy at least as stable on dense data over 20 seeds: "
              f"median calls {stats['ndshd2'][0]:.0f} <= {stats['ndshd1'][0]:.0f}, "
              f"time std {stats['ndshd2'][1]:.3f}s <= {stats['ndshd1'][1]:.3f}s",
           calls_ok and std_ok)


def test_acceptance_7_path_index_correctness():
    import itertools

    mismatch = 0
    for seed in range(100):
        rng = random.Random(40_000 + seed)
        g = random_labeled_graph(rng.randint(4, 12), rng.uniform(1.5, 3.0), 3, seed)
        cands = tuple(v for v in g.vertices if rng.random() < 0.7)
        l = rng.randint(1, 2)
        h = min(4, l + rng.randint(0, 2))
        store = enumerate_paths(g, cands, l, h)
        got = {store.vertices(p) for p in range(len(store))}
        expect = set()
        for u, w in itertools.combinations(sorted(cands), 2):
            for p in bounded_simple_paths(g, u, w, l, h):
                expect.add(p if p[0] < p[-1] else tuple(reversed(p)))
        if got != expect:
            mismatch += 1

    g = random_labeled_graph(12, 3.0, 2, 99)
    store = enumerate_paths(g, tuple(g.vertices), 1, 4)
    initial = store.snapshot()
    rng = random.Random(4242)
    stack = []
    count_errors = 0
    for _ in range(1000):
        if stack and rng.random() < 0.45:
            store.undo(stack.pop())
        elif rng.random() < 0.6:
            stack.append(store.remove_paths_through_vertex(rng.randrange(1, g.n + 1)))
        else:
            alive = [p for p in range(len(store)) if store.is_alive(p)]
            if alive:
                stack.append(store.remove_paths_conflicting_with(rng.choice(alive)))
        u, w = rng.randrange(1, g.n + 1), rng.randrange(1, g.n + 1)
        if u != w and store.pair_count(u, w) != len(store.alive_between(u, w)):
            count_errors += 1
    while stack:
        store.undo(stack.pop())
    restored = store.snapshot() == initial
    report(7, f"path index equals exhaustive enumeration on 100 graphs "
              f"({mismatch} mismatches); counters exact over 1000 remove/undo ops "
              f"({count_errors} count errors); final state bit-identical: {restored}",
           mismatch == 0 and count_errors == 0 and restored)


def test_acceptance_8_determinism(tmp_path, capsys):
    outputs = []
    for run in ("a", "b"):
        stats_file = tmp_path / f"stats_{run}.json"
        rc = main(["determine", PATTERN, DATA, "--l", "1", "--h", "3",
                   "--algo", "ndshd1", "--witness",
                   "--stats", str(stats_file), "--trace", "--no-timing"])
        assert rc == 0
        stdout = capsys.readouterr().out
        outputs.append((stdout.encode(), stats_file.read_bytes()))
    witness_ok = outputs[0][0] == outputs[1][0]
    trace_ok = outputs[0][1] == outputs[1][1]
    trace_len = len(json.loads(outputs[0][1])["trace"])

    spec = {
        "name": "determinism_check",
        "pattern": {"n1": 4, "m1": 3, "labels": "unique"},
        "data": {"n2": 100, "m2": 4, "labels": 8},
        "l": 1, "h": 3, "algo": "both", "repetitions": 3, "seed_base": 77,
        "sweep": {"variable": "n2", "values": [60, 100]},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    csvs = []
    for run in ("a", "b"):
        out = tmp_path / f"runs_{run}.csv"
        rc = main(["bench", str(spec_path), "--out", str(out), "--no-timing"])
        assert rc == 0
        capsys.readouterr()
        csvs.append(out.read_bytes() + (tmp_path / f"runs_{run}.csv.summary.csv").read_bytes())
    csv_ok = csvs[0] == csvs[1]
    report(8, f"byte-identical reruns: witness {witness_ok}, "
              f"trace ({trace_len} calls) {trace_ok}, bench CSVs {csv_ok}",
           witness_ok and trace_ok and csv_ok)
