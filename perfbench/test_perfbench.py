"""Tests of the benchmark's own parts: reference decider, checks, instances, tracer.

Run with ``python3 -m pytest perfbench``.
"""

import hashlib
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from homeomatch import graph, oracle, pathindex, search
from homeomatch.graph import serialize_graph
from homeomatch.mapping import Mapping

import clock
import instances
import run
from reference import CheckFailed, reference_decide, witness_problem
from tracer import Tracer, installed_wrappers


def _digest(g):
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()


@pytest.mark.parametrize("l", [1, 2, 3])
def test_reference_agrees_with_brute_force(l):
    checked = positives = 0
    for seed in range(60):
        rng = random.Random(1000 * l + seed)
        n1 = rng.randint(2, 5)
        labels = rng.randint(2, 4)
        g1 = instances.random_labeled_graph(n1, min(rng.uniform(1.0, 2.5), n1 - 1), labels, 2 * seed + 1)
        g2 = instances.random_labeled_graph(rng.randint(5, 12), rng.uniform(2.0, 4.0), labels, 2 * seed)
        h = min(oracle.MAX_PATH_LENGTH, l + rng.randint(0, 1))
        expected = {m.canonical_key() for m in oracle.brute_force_solve(g1, g2, l, h)}
        got = reference_decide(g1, g2, l, h)
        assert (got is not None) == bool(expected), (seed, l, h)
        if got is not None:
            assert got.canonical_key() in expected
            positives += 1
        checked += 1
    assert checked == 60 and 0 < positives < checked


def _planted_instance():
    pattern = instances.random_labeled_graph(5, 2.0, 3, 7)
    data, witness = instances.plant_subdivision(pattern, 1, 3, 10, 7)
    return pattern, data, witness


def test_reference_finds_planted_witness():
    pattern, data, _ = _planted_instance()
    assert reference_decide(pattern, data, 1, 3) is not None


def test_witness_problem_requires_exact_keys():
    pattern, data, witness = _planted_instance()
    assert witness_problem(pattern, data, 1, 3, witness) is None
    # An extra node_map key for a vertex the pattern does not have, mapped to
    # a data vertex already in use: verify_mapping alone accepts it.
    extra = Mapping({**witness.node_map, 99: witness.node_map[1]}, witness.edge_path_map)
    assert oracle.verify_mapping(pattern, data, 1, 3, extra)
    assert "node_map keys" in witness_problem(pattern, data, 1, 3, extra)
    a, b = next(iter(witness.edge_path_map))
    bogus = Mapping(witness.node_map, {**witness.edge_path_map, (a, 99): (1, 2)})
    assert "edge_path_map keys" in witness_problem(pattern, data, 1, 3, bogus)


def test_default_seed_reproduces_shipped_instances():
    # strategy_stability rep 3 and exp1_data_scale (n2=2000, rep 4) as
    # bench.run_experiment generates them from the shipped specs.
    dense = instances.dense_index(0)[1][0]
    sparse = instances.sparse_scale(0)[0][-1]
    assert _digest(dense.g1) == "73c4b59da2f7fce49cb0f312a7ae1c980c7ce0137e42098d95521e2ae739ab26"
    assert _digest(dense.g2) == "04e9966b8b126f020480fb5d77207877579987ebf19f71ff2120dbbf62893106"
    assert _digest(sparse.g1) == "77738dc69ba6141b9c5bd89d3024de074f379e5b5d926e51a38dc54ef54ae2b9"
    assert _digest(sparse.g2) == "cc6aca472ceaa0c32c473725d680c0aff58dd2d15c3d65fd222dcc612af9ad82"


def test_seeds_change_seeded_instances_only():
    (fixed0, seeded0), (fixed1, seeded1) = instances.dense_index(0), instances.dense_index(1)
    assert fixed0.g2 == fixed1.g2
    assert all(x.g2 != y.g2 for x, y in zip(seeded0, seeded1))
    deep0, enum0, failing0 = instances.planted_deep(0)
    deep1, enum1, failing1 = instances.planted_deep(1)
    assert all(x.g2 != y.g2 for x, y in zip(deep0, deep1))
    assert [x.g2 for x in enum0] == [y.g2 for y in enum1]
    assert failing0.g2 == failing1.g2


def test_clock_scales_by_the_kernel_times_near_an_operation():
    c = clock.Clock()
    assert c.calibrate() > 0 and len(c.samples) == 1
    c.samples = [(0.0, 0.05), (10.0, 0.010), (10.5, 0.020), (30.0, 0.001)]
    # Only the calibrations within WINDOW_SECONDS of [10.2, 10.4] count.
    assert c.scale(10.2, 10.4) == pytest.approx(clock.REFERENCE_SECONDS / 0.015)


def test_generator_checks_accept_program_output_and_reject_others():
    inst = instances.sparse_scale(0)[0][0]
    op = run.Op("gen", inst)
    run.run_op(op)
    run.check_generator(op)
    op.answer = graph.LabeledGraph(inst.g2.n, {v: "L0" for v in inst.g2.vertices}, [(1, 2)])
    with pytest.raises(CheckFailed, match="not connected"):
        run.check_generator(op)


def test_tracer_sees_imported_names_and_restores_originals():
    pattern, data, _ = _planted_instance()
    originals = (search.enumerate_paths, search.CompatibleMatrix.__dict__["initial"],
                 search.ndshd2, pathindex.PathStore.undo)
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError), tracer:
        tracer.op = 0
        assert search.ndshd2(pattern, data, 1, 3, stats=search.SearchStats()) is not None
        assert installed_wrappers()
        1 / 0
    assert installed_wrappers() == []
    assert (search.enumerate_paths, search.CompatibleMatrix.__dict__["initial"],
            search.ndshd2, pathindex.PathStore.undo) == originals
    assert tracer.counts["index.calls"] == 1
    assert tracer.counts["matrix.calls"] == 1
    assert tracer.counts["engine.calls"] == 1
    assert tracer.counts["index.pairs_checked"] > 0


def test_self_time_is_duration_minus_children():
    pattern, data, _ = _planted_instance()
    tracer = Tracer()
    with tracer:
        tracer.op = 0
        list(search.enumerate_all(pattern, data, 1, 3, stats=search.SearchStats()))
    spans = tracer.spans
    children = {}
    for span in spans:
        if span[1] is not None:
            children[span[1]] = children.get(span[1], 0.0) + span[5] - span[4]
    for span in spans:
        assert span[6] == pytest.approx(children.get(span[0], 0.0), abs=1e-9)
        assert span[5] - span[4] >= span[6] - 1e-9
    engine = [s for s in spans if s[3] == "engine.enumerate_all"]
    assert engine and all(s[1] is None for s in engine)


def test_pair_count_recount_catches_a_wrong_count(monkeypatch):
    pattern, data, _ = _planted_instance()
    monkeypatch.setattr(pathindex.PathStore, "pair_count", lambda self, u, w: -1)
    tracer = Tracer()
    with pytest.raises(CheckFailed, match="pair_count"), tracer:
        tracer.op = 0
        search.ndshd2(pattern, data, 1, 3)
    assert installed_wrappers() == []


def test_run_refuses_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(f, bench / f.name)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "planted-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
