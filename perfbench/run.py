"""Benchmark for homeomatch: three seeded workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload dense-index --seed 0 --seconds 40 --trace 0

One process, one thread, closed loop: each call starts when the previous
one returns.  A run repeats whole rounds of the workload's operations,
as many as fit in ``--seconds`` and at least one.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced round and reports the per-layer metrics.  Every answer is
checked; a failed check exits with code 1 before any result is printed.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("dense-index", "sparse-scale", "planted-deep")
# Witnesses per enumeration.
ENUM_LIMIT, DENSE_ENUM_LIMIT, SPARSE_ENUM_LIMIT = 200, 50, 20
# Generator calls per data graph on dense-index: one call takes 20-40 ms,
# too short to time steadily on its own.
DENSE_GEN_REPEATS = 5
# Data graphs set up under tracemalloc per run, largest first; a dense set-up
# under tracemalloc takes about 5 s.
PEAK_INSTANCES = {"dense-index": 1, "sparse-scale": 15, "planted-deep": 13}

END_TO_END = {
    "setup_s": "s",
    "search_s": "s",
    "ndshd1_s.p50": "s",
    "ndshd2_s.p50": "s",
    "decisions_per_s": "1/s",
    "witnesses_per_s": "1/s",
    "gen_s": "s",
    "index_peak_mib": "MiB",
}
PER_LAYER = {
    "graph.calls": "count", "graph.s": "s", "graph.edges": "count",
    "matrix.s": "s", "matrix.cells": "count",
    "index.s": "s", "index.paths": "count", "index.sources": "count",
    "index.pair_fit_ratio": "ratio",
    "prune.calls": "count", "prune.s": "s", "prune.paths_killed": "count",
    "refine.calls": "count", "refine.s": "s", "refine.cells_cleared": "count",
    "snapshot.calls": "count", "snapshot.s": "s", "snapshot.cells_copied": "count",
    "candidates.calls": "count", "candidates.s": "s", "candidates.returned": "count",
    "engine.self_s": "s", "engine.recursion_calls": "count", "engine.backtracks": "count",
    "engine.useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def load_program():
    """Import homeomatch from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "homeomatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no homeomatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import homeomatch

    if Path(homeomatch.__file__).resolve().parent != SRC / "homeomatch":
        raise SystemExit(f"error: imported homeomatch from {homeomatch.__file__}")


# operations ------------------------------------------------------------------

class Op:
    """One call into the program, with what the loop records about it."""

    __slots__ = ("kind", "inst", "arg", "seconds", "scale", "stats", "answer", "keys", "failed")

    def __init__(self, kind, inst, arg=None):
        self.kind = kind        # gen | determine | enumerate | failing
        self.inst = inst
        self.arg = arg          # strategy name or enumeration limit
        self.seconds = 0.0      # raw seconds; times ``scale`` gives reference seconds
        self.scale = 1.0
        self.stats = None
        self.answer = None      # witness, witness list, or generated graph
        self.keys = None
        self.failed = False


def build_round(workload: str, seed: int):
    import instances

    ops = []
    if workload == "planted-deep":
        deep, enum, failing = instances.planted_deep(seed)
        for inst in deep:
            ops += [Op("gen", inst), Op("determine", inst, "ndshd1"), Op("determine", inst, "ndshd2")]
        for inst in enum:
            ops += [Op("gen", inst), Op("enumerate", inst, ENUM_LIMIT)]
        ops += [Op("gen", failing), Op("failing", failing, "ndshd2")]
        return ops
    if workload == "dense-index":
        fixed, seeded = instances.dense_index(seed)
        # Enumeration runs on the fixed instance: on a seeded one its
        # set-up would swing witnesses_per_s from seed to seed.
        ops += [Op("gen", fixed) for _ in range(DENSE_GEN_REPEATS)]
        ops += [Op("determine", fixed, "ndshd1"), Op("determine", fixed, "ndshd2"),
                Op("enumerate", fixed, DENSE_ENUM_LIMIT)]
        for inst in seeded:
            ops += [Op("gen", inst) for _ in range(DENSE_GEN_REPEATS)]
            ops += [Op("determine", inst, "ndshd2")]
        return ops
    seeded, fixed = instances.sparse_scale(seed)
    for inst in seeded:
        ops += [Op("gen", inst), Op("determine", inst, "ndshd1"), Op("determine", inst, "ndshd2")]
    ops += [Op("enumerate", inst, SPARSE_ENUM_LIMIT) for inst in fixed]
    return ops


def _digest(g) -> str:
    from homeomatch.graph import serialize_graph

    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()


def run_op(op: Op):
    from homeomatch import graph, search

    inst = op.inst
    gc.collect()
    stats = search.SearchStats()
    if op.kind == "gen":
        if inst.gen[0] == "random":
            _, n, d, k, s = inst.gen
            t0 = time.perf_counter()
            out = graph.random_labeled_graph(n, d, k, s)
        else:
            _, l, h, padding, s = inst.gen
            t0 = time.perf_counter()
            out = graph.plant_subdivision(inst.g1, l, h, padding, s, return_witness=True)
        op.seconds = time.perf_counter() - t0
        op.answer = out
        return
    if op.kind == "enumerate":
        t0 = time.perf_counter()
        out = list(search.enumerate_all(inst.g1, inst.g2, inst.l, inst.h, limit=op.arg, stats=stats))
        op.seconds = time.perf_counter() - t0
        op.answer = out
        op.keys = [m.canonical_key() for m in out]
        op.stats = stats
        return
    fn = search.ndshd1 if op.arg == "ndshd1" else search.ndshd2
    t0 = time.perf_counter()
    try:
        out = fn(inst.g1, inst.g2, inst.l, inst.h, stats=stats)
    except RecursionError:
        if op.kind != "failing":
            raise
        op.failed = True
        return
    op.seconds = time.perf_counter() - t0
    op.answer = out
    op.keys = None if out is None else [out.canonical_key()]
    op.stats = stats


# checks ----------------------------------------------------------------------

def _require(ok, message):
    from reference import CheckFailed

    if not ok:
        raise CheckFailed(message)


def check_generator(op: Op):
    """Properties every program generator output must have."""
    from reference import witness_problem

    inst = op.inst
    if inst.gen[0] == "random":
        _, n, d, k, _s = inst.gen
        g = op.answer
        universe = {f"L{i}" for i in range(k)}
        tol = 6 * math.sqrt(n * d / 2) + 0.05 * n
        _require(g.n == n, f"{inst.name}: generator gave {g.n} vertices, asked for {n}")
        _require(g.is_connected(), f"{inst.name}: generated graph is not connected")
        _require({g.label(v) for v in g.vertices} <= universe,
                 f"{inst.name}: generated labels outside L0..L{k - 1}")
        _require(abs(g.m - n * d / 2) <= tol,
                 f"{inst.name}: {g.m} edges, expected {n * d / 2:.0f} +- {tol:.0f}")
        return
    _, l, h, padding, _s = inst.gen
    g, witness = op.answer
    p = inst.g1
    lo, hi = p.n + p.m * (l - 1) + padding, p.n + p.m * (h - 1) + padding
    _require(lo <= g.n <= hi, f"{inst.name}: planted graph has {g.n} vertices, outside [{lo}, {hi}]")
    _require(p.m * l + padding <= g.m <= p.m * h + 2 * padding,
             f"{inst.name}: planted graph has {g.m} edges")
    _require(g.is_connected() or not p.is_connected(), f"{inst.name}: planted graph is not connected")
    pool = {p.label(v) for v in p.vertices}
    _require({g.label(v) for v in g.vertices} <= pool, f"{inst.name}: planted labels outside the pattern's")
    problem = witness_problem(p, g, l, h, witness)
    _require(problem is None, f"{inst.name}: planted witness does not verify: {problem}")


def check_first_round(ops):
    """Check every output of a round against independent computations."""
    from reference import reference_decide, witness_problem

    answers: dict[str, dict[str, bool]] = {}
    for op in ops:
        inst = op.inst
        if op.kind == "gen":
            check_generator(op)
            continue
        if op.failed:
            continue
        if op.kind == "enumerate":
            witnesses = op.answer
            for m in witnesses:
                problem = witness_problem(inst.g1, inst.g2, inst.l, inst.h, m)
                _require(problem is None, f"{inst.name}: enumerated witness invalid: {problem}")
            _require(len(set(op.keys)) == len(op.keys), f"{inst.name}: duplicate enumerated witnesses")
            if len(witnesses) < op.arg and inst.planted is not None:
                _require(inst.planted.canonical_key() in set(op.keys),
                         f"{inst.name}: enumeration exhausted without the planted witness")
            answers.setdefault(inst.name, {})["enumerate"] = bool(witnesses)
        else:
            if op.answer is not None:
                problem = witness_problem(inst.g1, inst.g2, inst.l, inst.h, op.answer)
                _require(problem is None, f"{inst.name} {op.arg}: invalid witness: {problem}")
            answers.setdefault(inst.name, {})[op.arg] = op.answer is not None
    by_name = {op.inst.name: op.inst for op in ops}
    for name, got in answers.items():
        _require(len(set(got.values())) == 1, f"{name}: answers disagree: {got}")
        positive = next(iter(got.values()))
        inst = by_name[name]
        if inst.planted is not None:
            _require(positive, f"{name}: planted instance answered false")
        if not positive:
            _require(reference_decide(inst.g1, inst.g2, inst.l, inst.h) is None,
                     f"{name}: reference decider finds a witness for a negative answer")


def check_repeat(first, ops):
    """A later round must give exactly the first round's outputs."""
    for a, b in zip(first, ops):
        if a.kind == "gen":
            _require(_digest(_graph(a)) == _digest(_graph(b)),
                     f"{a.inst.name}: generator output differs between rounds")
        else:
            _require(a.failed == b.failed and a.keys == b.keys,
                     f"{a.inst.name} {a.kind} {a.arg}: output differs between rounds")


def _graph(op):
    return op.answer[0] if isinstance(op.answer, tuple) else op.answer


def check_generator_determinism(ops):
    """The same generator arguments twice give the same serialized bytes."""
    from homeomatch import graph

    op = next(o for o in ops if o.kind == "gen")
    if op.inst.gen[0] == "random":
        again = graph.random_labeled_graph(*op.inst.gen[1:])
    else:
        _, l, h, padding, s = op.inst.gen
        again = graph.plant_subdivision(op.inst.g1, l, h, padding, s)
    _require(_digest(again) == _digest(_graph(op)),
             f"{op.inst.name}: generator gave different bytes for the same seed")


# measurement -----------------------------------------------------------------

def run_round(ops, clock, tracer=None):
    """Run one round, with host-speed calibrations between operations."""
    fresh = [Op(o.kind, o.inst, o.arg) for o in ops]
    # Everything alive now stays out of the per-operation collections.
    gc.collect()
    gc.freeze()
    spans = []
    clock.tick(force=True)
    for i, op in enumerate(fresh):
        if tracer is not None:
            # The failing operation's time stays outside every timed metric.
            tracer.op = None if op.kind == "failing" else i
        start = time.perf_counter()
        run_op(op)
        spans.append((start, time.perf_counter()))
        if tracer is not None:
            tracer.op = None
        clock.tick(force=i == len(fresh) - 1)
    for op, (start, end) in zip(fresh, spans):
        op.scale = clock.scale(start, end)
    return fresh


def figures(rounds) -> dict:
    """Metrics from each call's median time over the run's rounds.

    Every time is in reference seconds (see ``clock.py``): the raw time
    scaled by the host speed measured around the call.
    """
    first = rounds[0]
    live = [i for i, o in enumerate(first) if o.kind != "failing"]
    det = [i for i in live if first[i].kind == "determine"]
    enum = [i for i in live if first[i].kind == "enumerate"]
    streamed = [i for i in enum if first[i].answer]

    def per_call(i, raw):
        return statistics.median(raw(r[i]) * r[i].scale for r in rounds)

    seconds = {i: per_call(i, lambda o: o.seconds) for i in live}
    setup = sum(per_call(i, lambda o: o.stats.setup_time) for i in det + enum)
    search = sum(per_call(i, lambda o: o.stats.wall_time) for i in det + enum)
    out = {f"{algo}_s.p50": statistics.median(seconds[i] for i in det if first[i].arg == algo)
           for algo in ("ndshd1", "ndshd2")}
    out.update({
        "setup_s": setup,
        "search_s": search,
        "decisions_per_s": len(det) / sum(seconds[i] for i in det),
        "witnesses_per_s": (sum(len(first[i].answer) for i in streamed)
                            / sum(seconds[i] for i in streamed)),
        "gen_s": sum(seconds[i] for i in live if first[i].kind == "gen"),
        "busy_s": sum(seconds.values()),
    })
    return out


def index_peak_mib(ops, count: int) -> float:
    """Mean tracemalloc peak of one call's set-up over the largest data graphs.

    Runs untimed, on the ``count`` instances with the most data edges.
    """
    from homeomatch.search import MatchState

    insts = {o.inst.name: o.inst for o in ops if o.kind in ("determine", "enumerate")}
    largest = sorted(insts.values(), key=lambda i: (i.g2.m, i.g2.n), reverse=True)[:count]
    peaks = []
    for inst in largest:
        gc.collect()
        tracemalloc.start()
        try:
            state = MatchState.create(inst.g1, inst.g2, inst.l, inst.h)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        del state
    return statistics.fmean(peaks)


def end_to_end(workload, seed, seconds):
    from clock import Clock

    ops = build_round(workload, seed)
    clock = Clock()
    # The memory pass runs first: it also grows the heap to the largest
    # index, so the timed rounds do not pay for first-touch page faults.
    peak = index_peak_mib(ops, PEAK_INSTANCES[workload])
    rounds = []
    measured = longest = 0.0
    # Whole rounds only, and only as many as fit in the time given.
    while not rounds or measured + longest <= seconds:
        t0 = time.perf_counter()
        done = run_round(ops, clock)
        took = time.perf_counter() - t0
        measured += took
        longest = max(longest, took)
        if rounds:
            check_repeat(rounds[0], done)
        else:
            check_first_round(done)
        rounds.append(done)
    check_generator_determinism(rounds[0])
    metrics = figures(rounds)
    metrics["index_peak_mib"] = peak
    return rounds, {name: metrics[name] for name in END_TO_END}


def per_layer(workload, seed):
    from clock import Clock
    from tracer import Tracer, installed_wrappers

    ops = build_round(workload, seed)
    clock = Clock()
    index_peak_mib(ops, PEAK_INSTANCES[workload])  # the same heap warm-up as the untraced pass
    plain = run_round(ops, clock)
    check_first_round(plain)
    tracer = Tracer(seed)
    with tracer:
        traced = run_round(ops, clock, tracer)
    _require(not installed_wrappers(), f"tracer wrappers left installed: {installed_wrappers()}")
    check_repeat(plain, traced)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.json")
    c = tracer.counts
    times = tracer.layer_times()
    metrics = {}
    for name in PER_LAYER:
        layer, what = name.split(".", 1)
        if what == "s":
            metrics[name] = times.get(layer, (0.0, 0.0))[0]
        elif name in c:
            metrics[name] = c[name]
    metrics["index.pair_fit_ratio"] = c["index.fitting_paths"] / c["index.paths"]
    metrics["engine.self_s"] = times["engine"][1]
    metrics["engine.useful_ratio"] = c["engine.useful_steps"] / c["engine.positive_recursion_calls"]
    metrics["trace.overhead_ratio"] = figures([traced])["busy_s"] / figures([plain])["busy_s"]
    missing = [n for n in PER_LAYER if n not in metrics]
    _require(not missing, f"per-layer metrics not measured: {missing}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from reference import CheckFailed

    try:
        if args.trace:
            rounds, metrics = per_layer(args.workload, args.seed)
            units = PER_LAYER
        else:
            rounds, metrics = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(r) for r in rounds)
    failed = sum(o.failed for r in rounds for o in r)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
