import collections
import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from homeomatch import (
    CompatibleMatrix,
    IndexTooLarge,
    LabeledGraph,
    candidate_branch_nodes,
    enumerate_paths,
    pathindex,
    random_labeled_graph,
)
from homeomatch.oracle import bounded_simple_paths

SRC = str(Path(__file__).resolve().parent.parent / "src")


def worked_store(worked_data, m0, l=2, h=2):
    return enumerate_paths(worked_data, candidate_branch_nodes(m0), l, h)


def all_bounded_pairs(g, candidates, l, h):
    """Independent oracle: per-pair exhaustive enumeration, canonical orientation."""
    out = set()
    for u, w in itertools.combinations(sorted(candidates), 2):
        for p in bounded_simple_paths(g, u, w, l, h):
            out.add(p if p[0] < p[-1] else tuple(reversed(p)))
    return out


class TestCandidateBranchNodes:
    def test_worked_example_excludes_two_columns(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        assert candidate_branch_nodes(m0) == (1, 2, 3, 4, 6, 7, 8)

    def test_all_zero_matrix(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        m0.rows[1:] = [frozenset()] * (len(m0.rows) - 1)
        assert candidate_branch_nodes(m0) == ()

    def test_all_ones_matrix(self):
        g = LabeledGraph(3, {1: "a", 2: "a", 3: "a"}, [(1, 2), (2, 3)])
        m0 = CompatibleMatrix.initial(g, g)
        m0.rows[1:] = [frozenset(g.vertices)] * (len(m0.rows) - 1)
        assert candidate_branch_nodes(m0) == (1, 2, 3)


class TestEnumeratePaths:
    def test_worked_example_pair_2_8(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        store = worked_store(worked_data, m0)
        found = {store.vertices(p) for p in store.alive_between(2, 8)}
        assert found == {(2, 1, 8), (2, 9, 8)}

    def test_non_candidate_inner_vertices_are_kept(self, worked_pattern, worked_data):
        # vertex 9 is not a candidate but sits inside stored paths
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        store = worked_store(worked_data, m0)
        assert any(9 in store.inner(pid) for pid in range(len(store)))

    def test_triangle_edges(self):
        tri = LabeledGraph(3, {1: "a", 2: "a", 3: "a"}, [(1, 2), (1, 3), (2, 3)])
        store = enumerate_paths(tri, (1, 2, 3), 1, 1)
        assert len(store) == 3
        assert {store.vertices(p) for p in range(3)} == {(1, 2), (1, 3), (2, 3)}

    def test_matches_exhaustive_enumeration_on_random_graphs(self):
        for seed in range(30):
            rng = random.Random(seed)
            g = random_labeled_graph(rng.randint(4, 10), rng.uniform(1.5, 3.0), 3, seed)
            cands = tuple(v for v in g.vertices if v % 2 == 1)
            l, h = 1, rng.randint(1, 3)
            store = enumerate_paths(g, cands, l, h)
            got = {store.vertices(p) for p in range(len(store))}
            assert got == all_bounded_pairs(g, cands, l, h), seed

    def test_no_stored_end_outside_candidates(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        store = worked_store(worked_data, m0, 1, 3)
        cands = set(store.candidates)
        for pid in range(len(store)):
            verts = store.vertices(pid)
            assert verts[0] in cands and verts[-1] in cands

    def test_window_validation(self, worked_data):
        with pytest.raises(ValueError):
            enumerate_paths(worked_data, (1, 2), 0, 1)
        with pytest.raises(ValueError):
            enumerate_paths(worked_data, (1, 2), 3, 2)

    def test_candidate_and_deadline_validation(self, worked_data):
        # (2, 2, 8) once stored each path from 2 twice, (True, 8) took True
        # for vertex 1, and a NaN deadline could never fire
        for cands, match in (((2, 2, 8), "candidate 2 is repeated"),
                             ((True, 8), "candidate True is not a vertex"),
                             ((2.0, 8), "candidate 2.0 is not a vertex"),
                             ((0, 8), "candidate 0 is not a vertex"),
                             ((2, 10), "candidate 10 is not a vertex")):
            with pytest.raises(ValueError, match=match):
                enumerate_paths(worked_data, cands, 2, 2)
        for deadline in (float("nan"), "x", True):
            with pytest.raises(ValueError, match="deadline must be a number"):
                enumerate_paths(worked_data, (2, 8), 2, 2, deadline=deadline)
        store = enumerate_paths(worked_data, (8, 2), 2, 2, deadline=float("inf"))
        assert store.candidates == (2, 8)
        assert store.pair_count(2, 8) == 2

    def test_path_budget_is_exact(self, monkeypatch):
        g = random_labeled_graph(12, 3.0, 3, 5)
        cands = tuple(g.vertices)
        store = enumerate_paths(g, cands, 1, 4)
        size = len(store)
        # paths are stored from their smaller end, so the last source that
        # adds paths is the second largest; its paths must be counted too
        assert store.vertices(size - 1)[0] == cands[-2]
        monkeypatch.setattr(pathindex, "MAX_PATHS", size)
        assert len(enumerate_paths(g, cands, 1, 4)) == size
        monkeypatch.setattr(pathindex, "MAX_PATHS", size - 1)
        with pytest.raises(IndexTooLarge, match=f"budget of {size - 1:,} stored paths"):
            enumerate_paths(g, cands, 1, 4)
        assert issubclass(IndexTooLarge, ValueError)

    def test_wide_window_ends_with_the_typed_error_not_memory_error(self):
        # 300 vertices of average degree 12 hold about 28 million paths of
        # length 1..5 between the 258 candidates.  Under a 1.5 GiB
        # address-space limit of its own, the build must stop at the path
        # budget before it runs out of memory.
        code = textwrap.dedent("""
            import resource
            limit = 3 * 2**29
            resource.setrlimit(resource.RLIMIT_AS,
                               (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
            from homeomatch import IndexTooLarge, MatchState, random_labeled_graph
            from homeomatch.bench import PatternSource, _generated_pattern
            g1 = _generated_pattern(PatternSource(n1=5, m1=4.0), 6, 3)
            g2 = random_labeled_graph(300, 12.0, 6, 2)
            try:
                MatchState.create(g1, g2, 1, 5)
            except IndexTooLarge:
                print("IndexTooLarge")
            """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stdout) == (0, "IndexTooLarge\n"), done.stderr[-2000:]


class TestRemovalAndUndo:
    def test_remove_through_matched_vertex(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        store = worked_store(worked_data, m0)
        # independent recomputation: paths that must die are exactly those
        # with vertex 8 strictly inside
        expect_dead = {pid for pid in range(len(store)) if 8 in store.inner(pid)}
        before_26 = store.path_count(2, 6)
        token = store.remove_paths_through_vertex(8)
        assert set(token.killed) == expect_dead
        assert expect_dead and all(not store.is_alive(p) for p in expect_dead)
        # ends are untouched: both (2,8) paths stay alive
        assert store.path_count(2, 8) == 2
        # no (2,6) path has 8 inside, so that count is unchanged
        assert store.path_count(2, 6) == before_26
        store.undo(token)

    def test_remove_through_untouched_vertex_is_noop(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        store = worked_store(worked_data, m0)
        before = store.snapshot()
        # the only length-2 path through vertex 4 would end at the
        # non-candidate vertex 5, so nothing is stored with 4 inside
        token = store.remove_paths_through_vertex(4)
        assert token.killed == ()
        assert store.snapshot() == before

    def test_remove_undo_restores_exactly(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        store = worked_store(worked_data, m0)
        before = store.snapshot()
        token = store.remove_paths_through_vertex(9)
        assert store.snapshot() != before
        store.undo(token)
        assert store.snapshot() == before

    def test_conflicting_removal_kills_sharing_paths(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        store = worked_store(worked_data, m0)
        (p296,) = [p for p in store.alive_between(2, 6) if store.vertices(p) == (2, 9, 6)]
        (p298,) = [p for p in store.alive_between(2, 8) if 9 in store.inner(p)]
        token = store.remove_paths_conflicting_with(p296)
        assert not store.is_alive(p298)
        assert store.is_alive(p296)
        store.undo(token)
        assert store.is_alive(p298)

    def test_length_one_path_conflicts_with_nothing(self):
        tri = LabeledGraph(3, {1: "a", 2: "a", 3: "a"}, [(1, 2), (1, 3), (2, 3)])
        store = enumerate_paths(tri, (1, 2, 3), 1, 1)
        token = store.remove_paths_conflicting_with(0)
        assert token.killed == ()
        assert all(store.is_alive(pid) for pid in range(len(store))) and len(store) == 3

    def test_remove_conflicting_validates_pid(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        store = worked_store(worked_data, m0)
        with pytest.raises(ValueError):
            store.remove_paths_conflicting_with(len(store))
        token = store.remove_paths_through_vertex(9)
        dead = token.killed[0]
        with pytest.raises(ValueError, match="not alive"):
            store.remove_paths_conflicting_with(dead)

    def test_path_count_requires_candidates(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        store = worked_store(worked_data, m0)
        assert store.path_count(2, 8) == 2
        assert store.path_count(3, 7) == 0  # candidates but no length-2 path
        with pytest.raises(ValueError, match="not a candidate"):
            store.path_count(2, 9)

    def test_lifo_undo_random_ops_restore_initial_state(self):
        for l, seed in itertools.product((1, 2, 3), range(10)):
            rng = random.Random(seed)
            g = random_labeled_graph(rng.randint(6, 12), 2.5, 2, seed)
            store = enumerate_paths(g, tuple(g.vertices), l, 3)
            last = assert_derived_structures(store)
            initial = store.snapshot()
            stack = []
            for _ in range(100):
                alive = [p for p in range(len(store)) if store.is_alive(p)]
                token = None
                if stack and rng.random() < 0.4:
                    store.undo(stack.pop())
                elif rng.random() < 0.6:
                    v = rng.randrange(1, g.n + 1)
                    token = store.remove_paths_through_vertex(v)
                    stack.append(token)
                    # a batch kills exactly the alive paths the taken vertex is inside
                    assert sorted(token.killed) == [
                        p for p in alive if v in store.inner(p)], (l, seed, v)
                else:
                    if not alive:
                        continue
                    pid = rng.choice(alive)
                    token = store.remove_paths_conflicting_with(pid)
                    stack.append(token)
                    taken = set(store.inner(pid))
                    assert sorted(token.killed) == [
                        p for p in alive if p != pid and taken & set(store.inner(p))
                    ], (l, seed, pid)
                last = assert_derived_structures(store, last, token)
            while stack:
                store.undo(stack.pop())
                last = assert_derived_structures(store, last)
            assert store.snapshot() == initial, (l, seed)


def assert_derived_structures(store, last=None, token=None):
    """Check the structures the build's bulk pass fills against a full recount.

    ``last`` is what the previous call returned, with exactly one removal
    batch or undo run since.  ``token`` is that removal batch's token, or
    None after an undo: its ``ends`` must hold exactly the candidates
    whose alive incident paths changed, and its ``zeroed`` exactly the
    pairs it left without an alive path.  Returns the alive paths per end
    and the alive count per pair.
    """
    ends = {v: [] for v in store.candidates}
    alive_ends = {v: [] for v in store.candidates}
    reach = {v: set() for v in store.candidates}
    alive_pairs = collections.Counter()
    for pid in range(len(store)):
        verts = store.vertices(pid)
        u, w = verts[0], verts[-1]
        ends[u].append(pid)
        ends[w].append(pid)
        if store.is_alive(pid):
            alive_ends[u].append(pid)
            alive_ends[w].append(pid)
            reach[u].add(w)
            reach[w].add(u)
            alive_pairs[u, w] += 1
    assert sum(map(store.is_alive, range(len(store)))) == sum(alive_pairs.values())
    for v in store.candidates:
        assert store.reachable_from(v) == reach[v], v
        assert store.paths_ending_at(v) == ends[v], v
    for u, w in itertools.combinations(store.candidates, 2):
        count = store.pair_count(u, w)
        assert count == len(store.alive_between(u, w)) == alive_pairs[u, w], (u, w)
    if token is not None:
        last_alive_ends, last_pairs = last
        assert token.ends == {
            v for v in store.candidates if alive_ends[v] != last_alive_ends[v]}
        assert sorted(token.zeroed) == sorted(
            pair for pair in last_pairs if not alive_pairs[pair])
    return alive_ends, alive_pairs


def test_dump_format(worked_pattern, worked_data):
    m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
    store = worked_store(worked_data, m0)
    lines = store.dump().splitlines()
    assert len(lines) == len(store)
    for pid, line in enumerate(lines):
        parts = line.split()
        assert parts[0] == "p" and int(parts[1]) == pid
        assert tuple(int(x) for x in parts[2:]) == store.vertices(pid)
