import copy
import functools
import hashlib
import gc
import itertools
import random
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from homeomatch import pathindex, search
from homeomatch import (
    CompatibleMatrix,
    LabeledGraph,
    Mapping,
    MatchState,
    plant_subdivision,
    SearchStats,
    SearchTimeout,
    enumerate_all,
    ndshd1,
    ndshd2,
    random_labeled_graph,
    verify_mapping,
)
from homeomatch.oracle import bounded_simple_paths, brute_force_solve

EXPECTED_NODE_MAP = {1: 2, 2: 8, 3: 6, 4: 4}
EXPECTED_PATHS = {(1, 2): (2, 1, 8), (1, 3): (2, 9, 6), (1, 4): (2, 3, 4),
                  (2, 3): (8, 7, 6), (3, 4): (6, 5, 4)}


def full_snapshot(state):
    return (state.matrix.snapshot(), state.store.snapshot(),
            list(state.node_image.items()), list(state.path_of_edge.items()),
            dict(state._dirty), dict(state.pending))


class TestInitialCompatibleMatrix:
    def test_worked_example_degree_filter(self, worked_pattern, worked_data):
        m0 = CompatibleMatrix.initial(worked_pattern, worked_data)
        # data vertex 5 shares the label of pattern vertex 1 but its
        # degree 2 is below the pattern vertex's degree 3
        assert worked_data.label(5) == worked_pattern.label(1)
        assert 5 not in m0.rows[1]
        assert sorted(m0.rows[1]) == [2]
        assert sorted(m0.rows[2]) == [1, 7, 8]
        assert sorted(m0.rows[3]) == [6]
        assert sorted(m0.rows[4]) == [3, 4]

    def test_identity_for_uniquely_labeled_graph(self):
        g = LabeledGraph(4, {1: "a", 2: "b", 3: "c", 4: "d"},
                         [(1, 2), (2, 3), (3, 4)])
        m0 = CompatibleMatrix.initial(g, g)
        for i in g.vertices:
            assert sorted(m0.rows[i]) == [i]

    def test_matches_direct_predicate_evaluation(self):
        for seed in range(10):
            g1 = random_labeled_graph(4, 1.5, 3, seed)
            g2 = random_labeled_graph(9, 2.5, 3, seed + 100)
            m0 = CompatibleMatrix.initial(g1, g2)
            for i in g1.vertices:
                for j in g2.vertices:
                    expect = (g1.label(i) == g2.label(j)
                              and g1.degree(i) <= g2.degree(j))
                    assert (j in m0.rows[i]) == expect

    def test_empty_graphs_give_empty_rows(self):
        g, empty = LabeledGraph(1, {1: "a"}, []), LabeledGraph(0, {}, [])
        assert CompatibleMatrix.initial(empty, g).rows == [frozenset()]
        assert CompatibleMatrix.initial(g, empty).rows == [frozenset(), frozenset()]
        assert CompatibleMatrix.initial(empty, empty).ones() == 0


class TestStatePredicates:
    def test_dead_when_a_row_is_empty(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        assert not s.is_dead()
        s.matrix.rows[3] = frozenset()
        assert s.is_dead()

    def test_not_dead_in_documented_partial_state(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        s.push_node_match(1, 2)
        s.push_node_match(2, 8)
        assert not s.is_dead()
        # pending edge (1,2) has images 2 and 8 joined by two alive paths
        assert s.store.path_count(2, 8) == 2

    def test_edge_phase_dead_when_pending_pair_has_no_paths(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        s.push_node_match(1, 2)
        s.push_node_match(2, 8)
        token = s.store.remove_paths_through_vertex(1)
        token2 = s.store.remove_paths_through_vertex(9)
        assert s.store.path_count(2, 8) == 0
        assert s.is_dead()
        s.store.undo(token2)
        s.store.undo(token)
        assert not s.is_dead()

    def test_success_requires_full_nm_and_epm(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        assert s.depth != s.g1.n + s.g1.m
        for vi, vj in EXPECTED_NODE_MAP.items():
            s.push_node_match(vi, vj)
        assert s.depth != s.g1.n + s.g1.m  # nodes complete, edges pending
        for edge in worked_pattern.sorted_edges():
            pids = s.path_candidates(edge)
            assert len(pids) >= 1
            target = EXPECTED_PATHS[edge]
            pick = [p for p in pids
                    if s.store.vertices(p) in (target, tuple(reversed(target)))]
            s.push_path_match(edge, pick[0])
        assert s.depth == s.g1.n + s.g1.m


class TestRefinement:
    def test_node_match_removes_paths_through_image(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        store = s.store
        through_8 = {p for p in range(len(store)) if 8 in store.inner(p)}
        assert through_8
        s.push_node_match(2, 8)
        assert all(not store.is_alive(p) for p in through_8)

    def test_node_match_restores_exactly(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        before = full_snapshot(s)
        s.push_node_match(2, 8)
        s.pop()
        assert full_snapshot(s) == before

    def test_path_match_kills_conflicts_and_blocks_inner_vertices(
            self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        s.push_node_match(1, 2)
        s.push_node_match(3, 6)
        store = s.store
        (p296,) = [p for p in store.alive_between(2, 6)
                   if store.vertices(p) == (2, 9, 6)]
        (p298,) = [p for p in store.alive_between(2, 8) if 9 in store.inner(p)]
        s.push_path_match((1, 3), p296)
        assert not store.is_alive(p298)
        assert store.is_alive(p296)
        # the committed path's inner vertex cannot become a branch node
        assert all(9 not in row for row in s.matrix.rows[1:])

    def test_length_one_path_match_changes_nothing_else(self):
        pattern = LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2)])
        data = LabeledGraph(3, {1: "a", 2: "b", 3: "b"}, [(1, 2), (1, 3), (2, 3)])
        s = MatchState.create(pattern, data, 1, 1)
        s.push_node_match(1, 1)
        s.push_node_match(2, 2)
        alive_before = [s.store.is_alive(p) for p in range(len(s.store))]
        rows_before = s.matrix.snapshot()
        (pid,) = s.path_candidates((1, 2))
        s.push_path_match((1, 2), pid)
        assert [s.store.is_alive(p) for p in range(len(s.store))] == alive_before
        assert s.matrix.snapshot() == rows_before
        assert s.depth == s.g1.n + s.g1.m

    def test_path_match_restores_exactly(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        s.push_node_match(1, 2)
        s.push_node_match(3, 6)
        before = full_snapshot(s)
        pid = s.path_candidates((1, 3))[0]
        s.push_path_match((1, 3), pid)
        s.pop()
        assert full_snapshot(s) == before

    def test_bad_push_or_pop_raises_and_leaves_the_state_untouched(
            self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        store = s.store

        def rejected(change, *args):
            before = full_snapshot(s), len(s._trail)
            with pytest.raises(ValueError):
                change(*args)
            assert (full_snapshot(s), len(s._trail)) == before

        def stored(path):
            (pid,) = [p for p in range(len(store)) if store.vertices(p) == path]
            return pid

        p218, p296, p298 = stored((2, 1, 8)), stored((2, 9, 6)), stored((2, 9, 8))
        rejected(s.pop)  # nothing pushed
        for vi in (0, -1, worked_pattern.n + 1):
            rejected(s.push_node_match, vi, 2)
        rejected(s.push_node_match, 1, 5)  # 5 is in no row
        # 2 is in row 1 and 1 in row 2, but a bool or float is no vertex id
        for vi, vj in ((True, 2), (2, True), (1.0, 2), (1, 2.0)):
            rejected(s.push_node_match, vi, vj)
        s.push_node_match(1, 2)
        rejected(s.push_node_match, 1, 2)  # vertex 1 is matched already
        rejected(s.push_path_match, (1, 2), p218)  # vertex 2 is unmatched
        s.push_node_match(2, 8)
        s.push_node_match(3, 6)
        rejected(s.push_path_match, (1, 3), p218)  # p218 joins the images of (1, 2)
        for pid in (-1, len(store), float(p218), True):
            rejected(s.push_path_match, (1, 2), pid)
        s.push_path_match((1, 3), p296)
        rejected(s.push_path_match, (1, 2), p298)  # p296 killed it
        s.push_path_match((1, 2), p218)
        assert s.path_of_edge == {(1, 3): p296, (1, 2): p218}
        while s.depth:
            s.pop()
        rejected(s.pop)

    def test_refine_clears_cell_without_independent_witnesses(self):
        # pattern: a-b-c chain; data: the b-candidate X reaches both the
        # a-image and the only c-candidate solely through vertex z, so no
        # pairwise independent pair of witness paths exists
        pattern = LabeledGraph(3, {1: "a", 2: "b", 3: "c"}, [(1, 2), (2, 3)])
        data = LabeledGraph(5, {1: "a", 2: "b", 3: "q", 4: "c", 5: "q"},
                            [(1, 3), (2, 3), (3, 4), (2, 5)])
        s = MatchState.create(pattern, data, 2, 2)
        assert 2 in s.matrix.rows[2]
        s.push_node_match(1, 1)
        assert 2 not in s.matrix.rows[2]
        assert s.is_dead()
        assert ndshd1(pattern, data, 2, 2) is None
        assert brute_force_solve(pattern, data, 2, 2) == []

    def test_refine_with_empty_nm_uses_reachability_only(self):
        pattern = LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2)])
        data = LabeledGraph(4, {1: "a", 2: "b", 3: "q", 4: "q"},
                            [(1, 3), (2, 4)])
        s = MatchState.create(pattern, data, 1, 2)
        assert 1 in s.matrix.rows[1] and 2 in s.matrix.rows[2]
        s.refine_compatibility()
        # no path joins the two labeled candidates, so both rows clear
        assert s.is_dead()

    def test_cleared_cells_never_appear_in_oracle_solutions(self):
        for seed in range(20):
            rng = random.Random(seed)
            g1 = random_labeled_graph(rng.randint(2, 4), 1.5, 3, seed + 40)
            g2 = random_labeled_graph(rng.randint(5, 10), 2.5, 3, seed + 70)
            s = MatchState.create(g1, g2, 1, 2)
            before = {(i, j) for i in g1.vertices for j in sorted(s.matrix.rows[i])}
            s.refine_compatibility()
            after = {(i, j) for i in g1.vertices for j in sorted(s.matrix.rows[i])}
            cleared = before - after
            used = set()
            for m in brute_force_solve(g1, g2, 1, 2):
                used.update(m.node_map.items())
            assert not (cleared & used), seed


class TestPending:
    def test_first_match_of_connected_pattern_makes_nothing_pending(
            self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        s.push_node_match(1, 2)
        assert s.pending == {}

    def test_second_match_makes_one_edge_pending(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        s.push_node_match(1, 2)
        s.push_node_match(2, 8)
        assert s.pending == {(2, 8): (1, 2)}
        s.push_path_match((1, 2), s.path_candidates((1, 2))[0])
        assert s.pending == {}
        s.pop()
        assert s.pending == {(2, 8): (1, 2)}

    def test_every_edge_of_k4_is_pending_under_its_image_pair(self):
        k4 = LabeledGraph(4, {1: "a", 2: "b", 3: "c", 4: "d"},
                          [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        s = MatchState.create(k4, k4, 1, 1)
        s.push_node_match(1, 1)
        s.push_node_match(2, 2)
        s.push_node_match(3, 3)
        s.push_node_match(4, 4)
        assert s.pending == {e: e for e in k4.edges}
        s.pop()
        assert s.pending == {(1, 2): (1, 2), (1, 3): (1, 3), (2, 3): (2, 3)}


class TestDetermination:
    def test_worked_example_true_at_2_2(self, worked_pattern, worked_data):
        for fn in (ndshd1, ndshd2):
            w = fn(worked_pattern, worked_data, 2, 2)
            assert w is not None
            assert verify_mapping(worked_pattern, worked_data, 2, 2, w)
        # under the default most-constrained-first order the search lands
        # on the documented witness
        w = ndshd1(worked_pattern, worked_data, 2, 2)
        assert w.node_map == EXPECTED_NODE_MAP
        assert dict(w.edge_path_map) == EXPECTED_PATHS

    def test_worked_example_false_at_3_3(self, worked_pattern, worked_data):
        assert ndshd1(worked_pattern, worked_data, 3, 3) is None
        assert ndshd2(worked_pattern, worked_data, 3, 3) is None

    def test_single_vertex_pattern(self):
        pattern = LabeledGraph(1, {1: "b"}, [])
        data = LabeledGraph(3, {1: "a", 2: "b", 3: "c"}, [(1, 2), (2, 3)])
        for fn in (ndshd1, ndshd2):
            w = fn(pattern, data, 1, 1)
            assert w is not None and w.node_map == {1: 2}

    def test_empty_pattern_is_trivially_contained(self, worked_data):
        empty = LabeledGraph(0, {}, [])
        for g2 in (worked_data, empty):
            for fn in (ndshd1, ndshd2):
                stats = SearchStats()
                assert fn(empty, g2, 1, 2, stats=stats) == Mapping({}, {})
                assert (stats.outcome, stats.recursion_calls) == (True, 0)
            for strategy in ("ndshd1", "ndshd2"):
                found = list(enumerate_all(empty, g2, 1, 2, strategy=strategy))
                assert found == [Mapping({}, {})]

    def test_empty_data_graph(self):
        empty = LabeledGraph(0, {}, [])
        for pattern in (LabeledGraph(1, {1: "a"}, []),
                        LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2)])):
            for fn in (ndshd1, ndshd2):
                stats = SearchStats()
                assert fn(pattern, empty, 1, 1, stats=stats) is None
                assert (stats.outcome, stats.recursion_calls) == (False, 0)
            for strategy in ("ndshd1", "ndshd2"):
                assert list(enumerate_all(pattern, empty, 1, 1, strategy=strategy)) == []

    def test_edgeless_pattern_reduces_to_node_assignment(self):
        pattern = LabeledGraph(2, {1: "a", 2: "a"}, [])
        data = LabeledGraph(3, {1: "a", 2: "a", 3: "b"}, [(1, 2), (2, 3)])
        w = ndshd2(pattern, data, 1, 1)
        assert w is not None and set(w.node_map.values()) == {1, 2}

    def test_window_validation(self, worked_pattern, worked_data):
        for fn in (ndshd1, ndshd2):
            with pytest.raises(ValueError):
                fn(worked_pattern, worked_data, 0, 2)
            with pytest.raises(ValueError):
                fn(worked_pattern, worked_data, 2, 1)
            # h is not capped: a window as long as the data graph answers
            w = fn(worked_pattern, worked_data, 1, 9)
            assert w is not None and verify_mapping(worked_pattern, worked_data, 1, 9, w)
        for g1 in (worked_pattern, LabeledGraph(0, {}, [])):
            for l, h in ((0, 2), (2, 1), (1, 2.5), (True, 3)):
                with pytest.raises(ValueError):
                    MatchState.create(g1, worked_data, l, h)

    def test_non_int_window_is_rejected(self):
        # a 2.5 window once let through a path of length 3, which the
        # verifier rejects
        g1 = LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2)])
        g2 = LabeledGraph(4, {1: "a", 2: "x", 3: "x", 4: "b"}, [(1, 2), (2, 3), (3, 4)])
        for l, h in ((1, 2.5), (1.0, 3), (True, 3), (1, "3")):
            for fn in (ndshd1, ndshd2):
                with pytest.raises(ValueError, match="must be an int"):
                    fn(g1, g2, l, h)
            with pytest.raises(ValueError, match="must be an int"):
                list(enumerate_all(g1, g2, l, h))
        assert ndshd2(g1, g2, 1, 3) is not None

    @pytest.mark.parametrize("deadline", [float("nan"), "x", True],
                             ids=["deadline-nan", "deadline-x", "deadline-True"])
    def test_config_rejects_invalid_fields(self, worked_pattern, worked_data, deadline):
        # A NaN deadline would never fire, and a non-number one fails only
        # mid-search.
        empty = LabeledGraph(0, {}, [])
        for g1, g2 in ((worked_pattern, worked_data), (empty, worked_data),
                       (worked_pattern, empty)):
            for fn in (ndshd1, ndshd2):
                with pytest.raises(ValueError, match="deadline"):
                    fn(g1, g2, 2, 2, deadline=deadline)
            for limit in (None, 0, 1):
                run = enumerate_all(g1, g2, 2, 2, limit=limit, deadline=deadline)
                with pytest.raises(ValueError, match="deadline"):
                    next(run)
        with pytest.raises(ValueError, match="deadline"):
            MatchState.create(worked_pattern, worked_data, 2, 2, deadline)
        deadline = int(time.monotonic()) + 60
        assert MatchState.create(worked_pattern, worked_data, 2, 2, deadline).deadline == deadline

    def test_timeout_raises(self, worked_pattern, worked_data):
        with pytest.raises(SearchTimeout):
            ndshd1(worked_pattern, worked_data, 2, 2, deadline=0.0)

    def test_passed_deadline_raises_before_the_index_is_built(
            self, worked_pattern, worked_data, monkeypatch):
        built = []
        real = search.enumerate_paths

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(search, "enumerate_paths", recording)
        deadline = time.monotonic() - 1.0
        for fn in (ndshd1, ndshd2):
            with pytest.raises(SearchTimeout, match="path-index build"):
                fn(worked_pattern, worked_data, 2, 2, deadline=deadline)
        assert built == []
        assert search.SearchTimeout is pathindex.SearchTimeout is SearchTimeout

    def test_deadline_holds_inside_one_source_of_the_index_build(self):
        # Only data vertices 1 and 2 are candidates, and at h = 8 the DFS
        # from vertex 1 alone would run for hours: the deadline must be
        # polled inside a source's DFS, not only between sources.
        g = random_labeled_graph(300, 12.0, 6, 2)
        data = LabeledGraph(g.n, {v: {1: "a", 2: "b"}.get(v, "c") for v in g.vertices}, g.edges)
        pattern = LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2)])
        t0 = time.monotonic()
        with pytest.raises(SearchTimeout, match="path-index build"):
            ndshd1(pattern, data, 1, 8, deadline=t0 + 1.0)
        assert time.monotonic() - t0 < 2.0

    def test_timed_out_search_is_undecided(self, worked_pattern, worked_data, monkeypatch):
        # A deadline that fires before any witness decides nothing; one
        # that fires after the first witness leaves the answer True.
        real_enter = search._Engine._enter

        def expiring(when):
            def enter(self):
                if when(self):
                    self._deadline = time.monotonic() - 1.0
                real_enter(self)
            return enter

        for fn in (ndshd1, ndshd2):
            stats = SearchStats()
            with pytest.raises(SearchTimeout, match="path-index build"):
                fn(worked_pattern, worked_data, 2, 2, deadline=time.monotonic() - 1.0,
                   stats=stats)
            assert stats.outcome is None
            with monkeypatch.context() as m:
                m.setattr(search._Engine, "_enter",
                          expiring(lambda engine: engine.stats.recursion_calls >= 2))
                stats = SearchStats()
                with pytest.raises(SearchTimeout, match="search exceeded"):
                    fn(worked_pattern, worked_data, 2, 2, stats=stats)
            assert (stats.recursion_calls, stats.outcome) == (2, None)
        pattern = LabeledGraph(2, {1: "a", 2: "a"}, [(1, 2)])
        data = LabeledGraph(4, {v: "a" for v in range(1, 5)}, [(1, 2), (2, 3), (3, 4), (1, 4)])
        expired = []
        monkeypatch.setattr(search._Engine, "_enter", expiring(lambda engine: expired))
        for strategy in ("ndshd1", "ndshd2"):
            expired.clear()
            stats = SearchStats()
            run = enumerate_all(pattern, data, 1, 1, strategy=strategy, stats=stats)
            assert next(run) is not None
            expired.append(True)
            with pytest.raises(SearchTimeout, match="search exceeded"):
                next(run)
            assert stats.outcome is True

    def test_passed_deadline_raises_in_refinement(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        before = full_snapshot(s)
        s.deadline = time.monotonic() - 1.0
        with pytest.raises(SearchTimeout, match="refinement"):
            s.refine_compatibility()
        # a push whose refinement times out is undone before the error leaves
        with pytest.raises(SearchTimeout, match="refinement"):
            s.push_node_match(2, 8)
        assert full_snapshot(s) == before


class TestEnumeration:
    def test_worked_example_has_exactly_one_witness(self, worked_pattern, worked_data,
                                                    worked_mapping):
        for strat in ("ndshd1", "ndshd2"):
            found = list(enumerate_all(worked_pattern, worked_data, 2, 2, strategy=strat))
            assert len(found) == 1
            assert found[0].canonical_key() == worked_mapping.canonical_key()

    def test_unsatisfiable_instance_yields_nothing(self, worked_pattern, worked_data):
        assert list(enumerate_all(worked_pattern, worked_data, 3, 3)) == []

    def test_limit_stops_early(self, worked_pattern, worked_data):
        pattern = LabeledGraph(2, {1: "a", 2: "a"}, [(1, 2)])
        data = LabeledGraph(4, {v: "a" for v in range(1, 5)},
                            [(1, 2), (2, 3), (3, 4), (1, 4)])
        # each of the 4 data edges hosts the symmetric pattern edge in
        # both orientations; the worked example has 6 witnesses at (1, 3)
        for (g1, g2, h, total), strategy in itertools.product(
                ((pattern, data, 1, 8), (worked_pattern, worked_data, 3, 6)),
                ("ndshd1", "ndshd2")):
            keys = [m.canonical_key() for m in enumerate_all(g1, g2, 1, h, strategy=strategy)]
            assert len(keys) == total
            calls = 0
            # a limit of k gives the first k witnesses of the unlimited run
            for k in range(1, total + 1):
                stats = SearchStats()
                run = enumerate_all(g1, g2, 1, h, limit=k, strategy=strategy, stats=stats)
                assert [m.canonical_key() for m in run] == keys[:k]
                assert stats.outcome is True
                assert stats.recursion_calls >= calls
                calls = stats.recursion_calls
            assert list(enumerate_all(g1, g2, 1, h, limit=0, strategy=strategy)) == []

    def test_non_int_limit_is_rejected(self):
        # a star with three witnesses, which a 1.5 limit once let all through
        pattern = LabeledGraph(2, {1: "c", 2: "a"}, [(1, 2)])
        data = LabeledGraph(4, {1: "c", 2: "a", 3: "a", 4: "a"}, [(1, 2), (1, 3), (1, 4)])
        assert len(list(enumerate_all(pattern, data, 1, 1))) == 3
        for limit in (1.5, 2.0, True, "1"):
            run = enumerate_all(pattern, data, 1, 1, limit=limit)
            with pytest.raises(ValueError, match="limit must be an int"):
                next(run)

    def test_arguments_are_checked_before_any_shortcut(self, worked_pattern, worked_data):
        empty = LabeledGraph(0, {}, [])
        for g1, g2 in ((worked_pattern, worked_data), (empty, worked_data),
                       (worked_pattern, empty)):
            for limit in (None, 0, 1):
                with pytest.raises(ValueError, match="path length"):
                    list(enumerate_all(g1, g2, 0, -1, limit=limit))
                with pytest.raises(ValueError, match="unknown strategy"):
                    list(enumerate_all(g1, g2, 1, 1, limit=limit, strategy="bogus"))

    def test_no_duplicates_and_matches_oracle_sets(self):
        windows = ((1, 2), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
        for seed in range(25):
            rng = random.Random(seed)
            g1 = random_labeled_graph(rng.randint(2, 4), 1.5, 3, seed + 3)
            g2 = random_labeled_graph(rng.randint(5, 10), 2.5, 3, seed + 11)
            for l, h in windows:
                oracle = {m.canonical_key() for m in brute_force_solve(g1, g2, l, h)}
                for strat in ("ndshd1", "ndshd2"):
                    got = [m.canonical_key()
                           for m in enumerate_all(g1, g2, l, h, strategy=strat)]
                    assert len(got) == len(set(got)), (seed, l, h)
                    assert set(got) == oracle, (seed, l, h)

    def test_every_emitted_mapping_verifies(self, worked_pattern, worked_data):
        for m in enumerate_all(worked_pattern, worked_data, 1, 3):
            assert verify_mapping(worked_pattern, worked_data, 1, 3, m)


class TestSearchHygiene:
    def test_inputs_and_state_unmodified_after_search(self, worked_pattern, worked_data):
        s = MatchState.create(worked_pattern, worked_data, 2, 2)
        matrix_before = s.matrix.snapshot()
        store_before = s.store.snapshot()
        from homeomatch.search import _Engine

        for strategy in ("ndshd1", "ndshd2"):
            for consume_all in (False, True):
                gen = _Engine(s, strategy, SearchStats()).solutions()
                if consume_all:
                    list(gen)
                else:
                    next(gen)
                gen.close()
                assert s.matrix.snapshot() == matrix_before
                assert s.store.snapshot() == store_before
                assert s.node_image == {} and s.path_of_edge == {}

    def test_calls_leave_no_cyclic_garbage(self, worked_pattern, worked_data, worked_mapping):
        # Everything a call builds, the path index above all, must be freed
        # when the call returns, not at some later garbage collection.
        calls = (lambda: ndshd1(worked_pattern, worked_data, 1, 3),
                 lambda: ndshd2(worked_pattern, worked_data, 1, 3),
                 lambda: list(enumerate_all(worked_pattern, worked_data, 1, 3)),
                 lambda: list(enumerate_all(worked_pattern, worked_data, 1, 3, limit=1)),
                 lambda: bounded_simple_paths(worked_data, 2, 8, 1, 3),
                 lambda: brute_force_solve(worked_pattern, worked_data, 2, 2),
                 lambda: verify_mapping(worked_pattern, worked_data, 2, 2, worked_mapping))
        gc.collect()
        gc.disable()
        try:
            for i, call in enumerate(calls):
                assert call() is not None
                assert gc.collect() == 0, i
        finally:
            gc.enable()

    # (call, l, h, outcome, recursion_calls, max_depth, backtracks,
    #  mean_backtrack_depth, trace as phase initial + depth per
    #  attempted match), recorded from the recursive engine on the worked
    #  example.  The engine must keep its call order: every attempted match
    #  and backtrack lands on the same count.
    GOLDEN_STATS = [
        ("ndshd1", 2, 2, True, 9, 9, 0, 0.0, "n1 n2 n3 n4 e5 e6 e7 e8 e9"),
        ("ndshd2", 2, 2, True, 9, 9, 0, 0.0, "n1 n2 e3 n4 e5 e6 n7 e8 e9"),
        ("enumerate_all", 2, 2, True, 10, 9, 10, 4.8, "n1 n2 e3 n4 e5 e6 n7 e8 e9 e3"),
        ("ndshd1", 3, 3, False, 0, 0, 0, 0.0, ""),
        ("ndshd2", 3, 3, False, 0, 0, 0, 0.0, ""),
        ("enumerate_all", 3, 3, False, 0, 0, 0, 0.0, ""),
        ("ndshd1", 1, 3, True, 9, 9, 0, 0.0, "n1 n2 n3 n4 e5 e6 e7 e8 e9"),
        ("ndshd2", 1, 3, True, 9, 9, 0, 0.0, "n1 n2 e3 n4 e5 e6 n7 e8 e9"),
        ("enumerate_all", 1, 3, True, 27, 9, 27, 6.666667,
         "n1 n2 e3 n4 e5 e6 n7 e8 e9 n7 e8 e9 n7 e8 e9 n4 e5 e6 n7 e8 e9 n7 e8 e9 n7 e8 e9"),
        ("enumerate_all/ndshd1", 1, 3, True, 40, 9, 40, 6.075,
         "n1 n2 n3 n4 e5 e6 e7 e8 e9 n4 e5 e6 e7 e8 e9 n4 e5 e6 e7 e8 e9 "
         "n3 n4 e5 e6 e7 e8 e9 n4 e5 e6 e7 e8 e9 n4 e5 e6 e7 e8 e9"),
    ]

    @pytest.mark.parametrize("call,l,h,outcome,calls,max_depth,backtracks,mean_bt,trace",
                             GOLDEN_STATS)
    def test_golden_stats_pin_the_call_order(self, worked_pattern, worked_data, call, l, h,
                                             outcome, calls, max_depth, backtracks,
                                             mean_bt, trace):
        stats = SearchStats(trace=[])
        if call == "ndshd1":
            ndshd1(worked_pattern, worked_data, l, h, stats=stats)
        elif call == "ndshd2":
            ndshd2(worked_pattern, worked_data, l, h, stats=stats)
        else:
            strategy = call.partition("/")[2] or "ndshd2"
            list(enumerate_all(worked_pattern, worked_data, l, h, strategy=strategy,
                               stats=stats))
        steps = trace.split()
        assert stats.as_dict(include_timing=False) == {
            "outcome": outcome,
            "recursion_calls": calls,
            "max_depth": max_depth,
            "backtracks": backtracks,
            "mean_backtrack_depth": mean_bt,
            "trace": [[i, int(step[1:]), "node" if step[0] == "n" else "edge"]
                      for i, step in enumerate(steps, 1)],
        }

    # (call, outcome, recursion_calls, max_depth, backtracks,
    #  mean_backtrack_depth), recorded before refinement kept a record of
    #  verified cells (the ndshd2 enumeration since it takes the fewest-paths
    #  edge): most of the time of these searches goes to refinement, so a
    #  cell cleared or kept differently changes the counts.
    GOLDEN_REFINE_STATS = [
        ("ndshd1", True, 79, 79, 0, 0.0),
        ("ndshd2", True, 79, 79, 0, 0.0),
        ("enumerate_all/ndshd2", True, 253, 10, 243, 7.444444),
        ("enumerate_all/ndshd1", True, 695, 10, 685, 6.360584),
    ]

    @pytest.mark.parametrize("call,outcome,calls,max_depth,backtracks,mean_bt",
                             GOLDEN_REFINE_STATS)
    def test_golden_stats_on_refinement_heavy_inputs(self, call, outcome, calls,
                                                     max_depth, backtracks, mean_bt):
        stats = SearchStats()
        if call in ("ndshd1", "ndshd2"):
            # a planted 40-vertex path, decided without a backtrack
            n = 40
            rng = random.Random(n)
            pattern = LabeledGraph(n, {v: f"L{rng.randrange(7)}" for v in range(1, n + 1)},
                                   [(v, v + 1) for v in range(1, n)])
            data = plant_subdivision(pattern, 1, 2, padding=20, seed=n)
            fn = ndshd1 if call == "ndshd1" else ndshd2
            assert fn(pattern, data, 1, 2, stats=stats) is not None
        else:
            pattern = random_labeled_graph(5, 1.6, 2, 4)
            data = plant_subdivision(pattern, 2, 3, padding=8, seed=4)
            found = list(enumerate_all(pattern, data, 2, 3, limit=50,
                                       strategy=call.partition("/")[2], stats=stats))
            assert len(found) == 50
        assert stats.as_dict(include_timing=False) == {
            "outcome": outcome,
            "recursion_calls": calls,
            "max_depth": max_depth,
            "backtracks": backtracks,
            "mean_backtrack_depth": mean_bt,
        }

    # The inputs above at a witness cap of 2, where the cap decides most kept
    # cells: (call, outcome, recursion_calls, max_depth, backtracks,
    # mean_backtrack_depth, sha256 prefix of the trace written as in
    # GOLDEN_STATS), recorded before witness picking became one loop (the
    # ndshd2 enumeration since it takes the fewest-paths edge).
    # Any change to the requirement order, the path order within a
    # requirement or what the cap counts changes some of these.
    GOLDEN_CAP2_STATS = [
        ("ndshd1", True, 79, 79, 0, 0.0, "7e3128ec86d10502"),
        ("ndshd2", True, 79, 79, 0, 0.0, "2450dd675a141b6e"),
        ("enumerate_all/ndshd2", True, 259, 10, 249, 7.385542, "0c3e6e5849d5fe6b"),
        ("enumerate_all/ndshd1", True, 711, 10, 701, 6.326676, "3dd334925c51845e"),
    ]

    @pytest.mark.parametrize("call,outcome,calls,max_depth,backtracks,mean_bt,trace",
                             GOLDEN_CAP2_STATS)
    def test_golden_stats_at_a_small_witness_cap(self, call, outcome, calls,
                                                 max_depth, backtracks, mean_bt, trace):
        stats = SearchStats(trace=[])
        if call in ("ndshd1", "ndshd2"):
            n = 40
            rng = random.Random(n)
            pattern = LabeledGraph(n, {v: f"L{rng.randrange(7)}" for v in range(1, n + 1)},
                                   [(v, v + 1) for v in range(1, n)])
            data = plant_subdivision(pattern, 1, 2, padding=20, seed=n)
            fn = ndshd1 if call == "ndshd1" else ndshd2
            with mock.patch.object(search, "WITNESS_CAP", 2):
                assert fn(pattern, data, 1, 2, stats=stats) is not None
        else:
            pattern = random_labeled_graph(5, 1.6, 2, 4)
            data = plant_subdivision(pattern, 2, 3, padding=8, seed=4)
            with mock.patch.object(search, "WITNESS_CAP", 2):
                found = list(enumerate_all(pattern, data, 2, 3, limit=50,
                                           strategy=call.partition("/")[2], stats=stats))
            assert len(found) == 50
        got = stats.as_dict(include_timing=False)
        steps = " ".join(f"{phase[0]}{depth}" for _, depth, phase in got.pop("trace"))
        assert len(stats.trace) == calls
        assert hashlib.sha256(steps.encode()).hexdigest()[:16] == trace
        assert got == {
            "outcome": outcome,
            "recursion_calls": calls,
            "max_depth": max_depth,
            "backtracks": backtracks,
            "mean_backtrack_depth": mean_bt,
        }

    def test_deterministic_stats_and_witnesses(self, worked_pattern, worked_data):
        runs = []
        for _ in range(2):
            stats = SearchStats(trace=[])
            w = ndshd2(worked_pattern, worked_data, 1, 3, stats=stats)
            runs.append((w.canonical_key(), stats.recursion_calls, stats.max_depth,
                         tuple(stats.trace)))
        assert runs[0] == runs[1]

    def test_stats_fields_consistent(self, worked_pattern, worked_data):
        stats = SearchStats(trace=[])
        ndshd1(worked_pattern, worked_data, 2, 2, stats=stats)
        assert stats.outcome is True
        assert stats.recursion_calls >= stats.max_depth
        assert len(stats.trace) == stats.recursion_calls
        assert stats.wall_time >= 0 and stats.setup_time > 0
        d = stats.as_dict(include_timing=False)
        assert "wall_time_s" not in d and "trace" in d

    def test_wall_time_leaves_out_the_consumer(self, worked_pattern, worked_data):
        # A consumer that sleeps 0.05 s per witness, whether it runs the
        # generator to its end or closes it after the first witness.
        stats = SearchStats()
        for count, _ in enumerate(enumerate_all(worked_pattern, worked_data, 1, 3,
                                                stats=stats), 1):
            time.sleep(0.05)
        assert count >= 2 and stats.outcome is True
        assert stats.wall_time < 0.05
        stats = SearchStats()
        run = enumerate_all(worked_pattern, worked_data, 1, 3, stats=stats)
        next(run)
        time.sleep(0.05)
        run.close()
        assert stats.outcome is True and stats.wall_time < 0.05

    def test_strategy_agreement_on_random_inputs(self):
        for seed in range(40):
            rng = random.Random(seed + 1234)
            n1 = rng.randint(2, 5)
            g1 = random_labeled_graph(n1, min(2.0, n1 - 1), 4, seed)
            g2 = random_labeled_graph(rng.randint(6, 14), 3.0, 4, seed + 17)
            h = rng.randint(1, 3)
            assert (ndshd1(g1, g2, 1, h) is None) == (ndshd2(g1, g2, 1, h) is None), seed

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # A planted path pattern nests one search state per node and edge
        # match, about 300 here; the search must find it with far fewer
        # interpreter frames than that to spare.
        n = 150
        rng = random.Random(n)
        pattern = LabeledGraph(n, {v: f"L{rng.randrange(7)}" for v in range(1, n + 1)},
                               [(v, v + 1) for v in range(1, n)])
        data = plant_subdivision(pattern, 1, 2, padding=50, seed=n)
        calls = (lambda: ndshd1(pattern, data, 1, 2),
                 lambda: ndshd2(pattern, data, 1, 2),
                 lambda: next(enumerate_all(pattern, data, 1, 2, limit=1), None))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            witnesses = [call() for call in calls]
        finally:
            sys.setrecursionlimit(limit)
        for w in witnesses:
            assert w is not None
            assert verify_mapping(pattern, data, 1, 2, w)


@st.composite
def _instances(draw):
    """A small random instance inside the brute-force oracle's guard."""
    seed = draw(st.integers(0, 2**16))
    n1 = draw(st.integers(2, 4))
    labels = draw(st.integers(2, 4))
    l = draw(st.integers(1, 3))
    h = draw(st.integers(l, 4))
    g1 = random_labeled_graph(n1, min(1.5, n1 - 1), labels, 2 * seed + 1)
    g2 = random_labeled_graph(draw(st.integers(5, 9)), draw(st.sampled_from([2.0, 3.0])),
                              labels, 2 * seed)
    return g1, g2, l, h


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(instance=_instances())
def test_each_strategy_leaves_its_first_level_only_when_it_is_done(instance):
    """The successor rule: ``ndshd1`` pushes no path match while a row is
    unmatched, and ``ndshd2`` no node match while an edge is pending.  Both
    push every path match on the edge ``select_pending_edge()`` names."""
    g1, g2, l, h = instance
    node_push, path_push = MatchState.push_node_match, MatchState.push_path_match
    pushes = []

    def push_node(s, vi, vj):
        pushes.append(("node", len(s.node_image) < s.g1.n, bool(s.pending), True))
        return node_push(s, vi, vj)

    def push_path(s, edge, pid):
        pushes.append(("edge", len(s.node_image) < s.g1.n, bool(s.pending),
                       edge == s.select_pending_edge()))
        return path_push(s, edge, pid)

    with mock.patch.multiple(MatchState, push_node_match=push_node,
                             push_path_match=push_path):
        list(enumerate_all(g1, g2, l, h, strategy="ndshd1"))
        assert ("edge", True) not in {(level, unmatched) for level, unmatched, _, _ in pushes}
        assert all(selected for *_, selected in pushes)
        pushes.clear()
        list(enumerate_all(g1, g2, l, h, strategy="ndshd2"))
        assert ("node", True) not in {(level, pending) for level, _, pending, _ in pushes}
        assert all(selected for *_, selected in pushes)


_CAPS = st.sampled_from([0, 1, search.WITNESS_CAP])


def _with_drawn_cap(test):
    """Run ``test(instance, cap)`` with ``search.WITNESS_CAP`` set to ``cap``."""
    @functools.wraps(test)
    def run(instance, cap):
        with mock.patch.object(search, "WITNESS_CAP", cap):
            test(instance, cap)
    return run


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(instance=_instances(), cap=_CAPS)
@_with_drawn_cap
def test_strategies_and_oracle_agree_under_every_config(instance, cap):
    g1, g2, l, h = instance
    oracle = {m.canonical_key() for m in brute_force_solve(g1, g2, l, h)}
    for fn in (ndshd1, ndshd2):
        w = fn(g1, g2, l, h)
        assert (w is not None) == bool(oracle)
        assert w is None or w.canonical_key() in oracle
    for strategy in ("ndshd1", "ndshd2"):
        got = [m.canonical_key() for m in enumerate_all(g1, g2, l, h, strategy=strategy)]
        assert len(got) == len(set(got))
        assert set(got) == oracle


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(instance=_instances(), cap=_CAPS)
@_with_drawn_cap
def test_push_local_dead_check_matches_the_full_one(instance, cap):
    """Every push the engine makes returns the verdict of the full
    ``is_dead()`` on the state it leaves, though it looks only at what the
    push changed."""
    g1, g2, l, h = instance
    real_node, real_path = MatchState.push_node_match, MatchState.push_path_match

    def compared(real):
        def push(self, item, choice):
            verdict = real(self, item, choice)
            assert verdict is self.is_dead()
            return verdict
        return push

    with mock.patch.object(MatchState, "push_node_match", compared(real_node)), \
            mock.patch.object(MatchState, "push_path_match", compared(real_path)):
        for fn in (ndshd1, ndshd2):
            fn(g1, g2, l, h)
        for strategy in ("ndshd1", "ndshd2"):
            list(enumerate_all(g1, g2, l, h, strategy=strategy))


# Root refinement clears data vertex 3 from row 1, keeps row 2 and then
# empties row 3, so each search ends at the root with row 1 out of the dirty
# map, and only the final restore regrows it and puts it back in the map.
_DEAD_ROOT = (LabeledGraph(4, {1: "a", 2: "b", 3: "c", 4: "d"}, [(1, 2), (3, 4)]),
              LabeledGraph(8, {1: "a", 2: "b", 3: "a", 4: "q", 5: "c", 6: "q", 7: "d", 8: "q"},
                           [(1, 2), (3, 4), (5, 6), (7, 8)]),
              1, 1)


def _run_engine(state, strategy, first_only):
    """Canonical witnesses and deterministic stats of one search on ``state``."""
    stats = SearchStats(trace=[])
    gen = search._Engine(state, strategy, stats).solutions()
    try:
        found = [next(gen, None)] if first_only else list(gen)
    finally:
        gen.close()
    return [m.canonical_key() for m in found if m is not None], stats.as_dict(False)


_SEARCHES = (("ndshd1", True), ("ndshd2", True), ("ndshd2", False), ("ndshd1", False))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(instance=_instances(), cap=_CAPS)
@example(instance=_DEAD_ROOT, cap=search.WITNESS_CAP)
@_with_drawn_cap
def test_one_state_serves_several_searches(instance, cap):
    """Searches run one after another on one state each give the witnesses
    and the counters of a fresh state, in the same order, and leave the
    state, its dirty map included, as a fresh one's."""
    g1, g2, l, h = instance
    shared = MatchState.create(g1, g2, l, h)
    for strategy, first_only in _SEARCHES:
        fresh = MatchState.create(g1, g2, l, h)
        assert (_run_engine(shared, strategy, first_only)
                == _run_engine(fresh, strategy, first_only))
        assert full_snapshot(shared) == full_snapshot(fresh)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(instance=_instances(), cap=_CAPS)
@_with_drawn_cap
def test_pop_gives_back_the_dirty_map_and_rows_its_push_found(instance, cap):
    """Every pop puts back exactly the dirty map and the rows that its push
    found, and a finished or closed search leaves the map and the rows that
    its root found."""
    g1, g2, l, h = instance
    real_node, real_path, real_pop = (MatchState.push_node_match,
                                      MatchState.push_path_match, MatchState.pop)
    found = []  # the dirty map and rows each open push found, oldest first

    def recording(real):
        def push(self, item, choice):
            found.append((copy.copy(self._dirty), self.matrix.snapshot()))
            return real(self, item, choice)
        return push

    def checked_pop(self):
        real_pop(self)
        assert (self._dirty, self.matrix.snapshot()) == found.pop()

    with mock.patch.object(MatchState, "push_node_match", recording(real_node)), \
            mock.patch.object(MatchState, "push_path_match", recording(real_path)), \
            mock.patch.object(MatchState, "pop", checked_pop):
        for strategy, first_only in _SEARCHES:
            state = MatchState.create(g1, g2, l, h)
            root = (copy.copy(state._dirty), state.matrix.snapshot())
            _run_engine(state, strategy, first_only)
            assert not found
            assert (state._dirty, state.matrix.snapshot()) == root


def _assert_clean_cells_are_supported(state):
    """Every cell of an unmatched row that the next refinement would not
    re-check passes the reach tests and a fresh witness pick: the cells of
    a row outside the dirty map, and the cells of a row outside its pending
    set."""
    g1, rows, img, store = state.g1, state.matrix.rows, state.node_image, state.store
    cap = search.WITNESS_CAP
    for i in g1.vertices:
        pending = state._dirty.get(i, frozenset())
        if i in img or pending is None or not g1.neighbors(i):
            continue
        images = [img[u] for u in g1.neighbors(i) if u in img]
        neighbor_rows = [rows[u] for u in g1.neighbors(i) if u not in img]
        for vj in rows[i] - pending:
            reach = store.reachable_from(vj)
            assert reach.issuperset(images), (i, vj)
            assert all(not row.isdisjoint(reach) for row in neighbor_rows), (i, vj)
            assert store.has_witnesses(vj, images, neighbor_rows, cap), (i, vj)


# Here matches strip the last candidates from an unmatched row while a row
# after it in visit order still has cells to clear.  Such a push leaves the
# state dead and must return that without a refinement, which would clear
# those cells before it reached the emptied row.
_STRIPPED_EMPTY = (
    LabeledGraph(4, {1: "L0", 2: "L0", 3: "L1", 4: "L1"}, [(1, 3), (1, 4), (2, 4)]),
    LabeledGraph(9, {1: "L1", 2: "L1", 3: "L0", 4: "L0", 5: "L1", 6: "L0", 7: "L0",
                     8: "L0", 9: "L0"},
                 [(1, 2), (1, 3), (1, 6), (1, 9), (2, 3), (2, 5), (3, 4), (3, 5), (3, 8),
                  (4, 5), (4, 8), (5, 8), (7, 8)]),
    2, 4)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(instance=_instances(), cap=_CAPS)
@example(instance=_STRIPPED_EMPTY, cap=search.WITNESS_CAP)
@_with_drawn_cap
def test_refinement_rechecks_only_pending_cells(instance, cap):
    """At every refinement of a search, every cell it would not re-check is
    supported, and the pass that re-checks only the pending cells clears
    exactly the cells, and returns the verdict, of a pass with every cell
    of every unmatched row pending."""
    g1, g2, l, h = instance
    real_refine = MatchState.refine_compatibility
    passes = []

    def checked_refine(self, hints=()):
        rows = self.matrix.rows
        _assert_clean_cells_are_supported(self)
        before, dirty = rows[:], self._dirty
        self._dirty = dict.fromkeys(i for i in g1.vertices if i not in self.node_image)
        full = real_refine(self, hints)
        expected = rows[:]
        rows[:] = before
        self._dirty = dirty
        verdict = real_refine(self, hints)
        assert (verdict, rows) == (full, expected)
        passes.append(hints)
        return verdict

    with mock.patch.object(MatchState, "refine_compatibility", checked_refine):
        for fn in (ndshd1, ndshd2):
            fn(g1, g2, l, h)
        for strategy in ("ndshd1", "ndshd2"):
            list(enumerate_all(g1, g2, l, h, strategy=strategy))
    assert passes


def test_no_refinement_runs_on_a_pushed_state_with_an_empty_row():
    """A push whose strip empties an unmatched row returns the state dead
    without refining it."""
    g1, g2, l, h = _STRIPPED_EMPTY
    real_node, real_refine = MatchState.push_node_match, MatchState.refine_compatibility
    emptied, wasted = [], []

    def has_empty_row(state):
        return any(not state.matrix.rows[i] for i in g1.vertices if i not in state.node_image)

    def push(self, vi, vj):
        dead = real_node(self, vi, vj)
        if has_empty_row(self):
            emptied.append((vi, vj))
        return dead

    def refine(self, hints=()):
        if self.depth and has_empty_row(self):
            wasted.append(hints)
        return real_refine(self, hints)

    with mock.patch.object(MatchState, "push_node_match", push), \
            mock.patch.object(MatchState, "refine_compatibility", refine):
        for strategy in ("ndshd1", "ndshd2"):
            list(enumerate_all(g1, g2, l, h, strategy=strategy))
    assert emptied
    assert wasted == []


def test_no_refinement_runs_on_a_pushed_state_with_a_pathless_pending_edge():
    """A push whose kills leave a pending edge without an alive path
    returns the state dead without refining it."""
    g1 = random_labeled_graph(3, 2.0, 3, 61)
    g2 = random_labeled_graph(9, 3.0, 3, 60)
    real_refine = MatchState.refine_compatibility
    pathless, wasted = [], []

    def has_pathless_edge(state):
        return any(not state.store.pair_count(a, b) for a, b in state.pending)

    def recording(real_push):
        def push(self, *args):
            dead = real_push(self, *args)
            if has_pathless_edge(self):
                pathless.append(args)
            return dead
        return push

    def refine(self, hints=()):
        if self.depth and has_pathless_edge(self):
            wasted.append(hints)
        return real_refine(self, hints)

    with mock.patch.object(MatchState, "push_node_match", recording(MatchState.push_node_match)), \
            mock.patch.object(MatchState, "push_path_match", recording(MatchState.push_path_match)), \
            mock.patch.object(MatchState, "refine_compatibility", refine):
        witnesses = list(enumerate_all(g1, g2, 1, 2, strategy="ndshd1"))
    assert len(witnesses) == 8
    assert pathless
    assert wasted == []


class _ReferencePaths:
    """Cache-backed path-id sequence that can be re-iterated mid-pick."""

    def __init__(self, src=None, items=None):
        self._src = src
        self.items = list(items) if items is not None else []
        self.done = src is None

    def __iter__(self):
        i = 0
        while True:
            while i < len(self.items):
                yield self.items[i]
                i += 1
            if self.done:
                return
            try:
                self.items.append(next(self._src))
            except StopIteration:
                self.done = True


class _BudgetExceeded(Exception):
    pass


def _reference_pick(store, vj, images, rows, cap):
    """The recursive witness picker, written with the store's public reads.

    Requirements: the images' alive path lists sorted by length (stable),
    then one lazily filled list per row, paths in ascending id order; one
    unit of ``cap`` per path tried, before its independence test.  Returns
    the verdict and the units spent.
    """
    for fu in images:
        if store.pair_count(vj, fu) == 0:
            return False, 0
    reach = store.reachable_from(vj)
    for row in rows:
        if row.isdisjoint(reach):
            return False, 0
    if len(images) + len(rows) <= 1:
        return True, 0

    def row_paths(row):
        for pid in store.paths_ending_at(vj):
            if store.is_alive(pid):
                verts = store.vertices(pid)
                if (verts[-1] if verts[0] == vj else verts[0]) in row:
                    yield pid

    def independent(p, q):
        pv, qv = store.vertices(p), store.vertices(q)
        return not set(pv[1:-1]) & set(qv) and not set(qv[1:-1]) & set(pv)

    reqs = [_ReferencePaths(items=store.alive_between(vj, fu)) for fu in images]
    reqs.sort(key=lambda r: len(r.items))
    reqs.extend(_ReferencePaths(src=row_paths(row)) for row in rows)
    budget = [cap]

    def pick(k, chosen):
        if k == len(reqs):
            return True
        for pid in reqs[k]:
            budget[0] -= 1
            if budget[0] < 0:
                raise _BudgetExceeded
            if all(independent(pid, q) for q in chosen):
                chosen.append(pid)
                if pick(k + 1, chosen):
                    return True
                chosen.pop()
        return False

    try:
        found = pick(0, [])
    except _BudgetExceeded:
        found = True
    return found, cap - budget[0]


_WITNESS_CAPS = [0, 1, 2, 3, 5, search.WITNESS_CAP]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(instance=_instances(), cap=st.sampled_from(_WITNESS_CAPS))
@_with_drawn_cap
def test_witness_picker_matches_the_recursive_reference(instance, cap):
    """Every cell refinement checks gets the reference picker's verdict and
    spends as many units of the cap, at the search's own witness cap and at
    every other cap of the list."""
    g1, g2, l, h = instance
    real_pick = pathindex.PathStore.has_witnesses

    def compared_pick(store, vj, images, rows, used):
        assert used == cap
        for other in _WITNESS_CAPS:
            tries = store.witness_tries
            verdict = real_pick(store, vj, images, rows, other)
            assert (verdict, store.witness_tries - tries) == _reference_pick(
                store, vj, images, rows, other), other
        return real_pick(store, vj, images, rows, used)

    with mock.patch.object(pathindex.PathStore, "has_witnesses", compared_pick):
        for fn in (ndshd1, ndshd2):
            fn(g1, g2, l, h)
        for strategy in ("ndshd1", "ndshd2"):
            list(enumerate_all(g1, g2, l, h, strategy=strategy))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(instance=_instances(), cap=_CAPS)
@_with_drawn_cap
def test_pruning_keeps_candidates_valid(instance, cap):
    """The search reads its candidates straight from the matrix rows and the
    alive paths, so the pruning must keep them valid.  After every push and
    every pop: no alive path has a matched vertex inside it, no alive path
    but a committed one has a committed inner vertex inside it, no matched
    image and no unmatched row entry is a committed inner vertex, and every
    path candidate of a pending edge has no taken vertex inside it and no
    committed inner vertex anywhere on it.  The pending map holds exactly
    the edges with matched ends and no committed path, keyed by their image
    pairs.  Every matrix row is a frozenset, a push never adds a matrix
    cell, and a pushed path joins the images of its edge's ends."""
    g1, g2, l, h = instance
    real_node, real_path, real_pop = (MatchState.push_node_match,
                                      MatchState.push_path_match, MatchState.pop)
    through = {}  # store -> data vertex -> ids of the stored paths it is inside

    def check(state):
        store = state.store
        if store not in through:
            through[store] = index = {}
            for pid in range(len(store)):
                for x in store.inner(pid):
                    index.setdefault(x, []).append(pid)
        index = through[store]
        images = set(state.node_image.values())
        for vj in images:
            assert not any(store.is_alive(p) for p in index.get(vj, ())), vj
        committed = set(state.path_of_edge.values())
        blocked = {x for pid in committed for x in store.inner(pid)}
        for x in blocked:
            assert all(p in committed or not store.is_alive(p) for p in index[x]), x
        assert not images & blocked
        img, committed_edges = state.node_image, state.path_of_edge
        assert state.pending == {
            (min(img[a], img[b]), max(img[a], img[b])): (a, b) for a, b in g1.edges
            if a in img and b in img and (a, b) not in committed_edges}
        taken = images | blocked
        for edge in state.pending.values():
            for pid in state.path_candidates(edge):
                assert not taken & set(store.inner(pid)), (edge, pid)
                assert not blocked & set(store.vertices(pid)), (edge, pid)
        assert all(type(row) is frozenset for row in state.matrix.rows)
        for i in range(1, g1.n + 1):
            if i not in state.node_image:
                assert not blocked & state.matrix.rows[i], i

    def checked_push(real):
        def push(self, item, choice):
            if real is real_path:
                verts = self.store.vertices(choice)
                ends = {self.node_image[item[0]], self.node_image[item[1]]}
                assert {verts[0], verts[-1]} == ends, (item, verts)
            before = [set(r) for r in self.matrix.rows]
            dead = real(self, item, choice)
            assert all(r <= b for r, b in zip(self.matrix.rows, before))
            check(self)
            return dead
        return push

    def checked_pop(self):
        real_pop(self)
        check(self)

    with mock.patch.object(MatchState, "push_node_match", checked_push(real_node)), \
            mock.patch.object(MatchState, "push_path_match", checked_push(real_path)), \
            mock.patch.object(MatchState, "pop", checked_pop):
        for fn in (ndshd1, ndshd2):
            fn(g1, g2, l, h)
        for strategy in ("ndshd1", "ndshd2"):
            list(enumerate_all(g1, g2, l, h, strategy=strategy))
