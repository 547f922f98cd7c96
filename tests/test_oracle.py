import itertools
import random
import sys

import pytest

from homeomatch import LabeledGraph, Mapping, random_labeled_graph
from homeomatch.oracle import (
    bounded_simple_paths,
    brute_force_solve,
    verify_mapping,
    _conflict_vertex,
)


class TestVerifyMapping:
    def test_worked_example_witness_is_valid(self, worked_pattern, worked_data,
                                             worked_mapping):
        assert verify_mapping(worked_pattern, worked_data, 2, 2, worked_mapping)

    def test_shared_inner_vertex_is_reported(self, worked_pattern, worked_data,
                                             worked_mapping):
        tampered = Mapping(dict(worked_mapping.node_map),
                           dict(worked_mapping.edge_path_map))
        tampered.edge_path_map[(1, 2)] = (2, 9, 8)  # collides with 2-9-6 on vertex 9
        result = verify_mapping(worked_pattern, worked_data, 2, 2, tampered)
        assert not result
        assert "not independent" in result.reason and "9" in result.reason

    def test_non_injective_node_map(self, worked_pattern, worked_data, worked_mapping):
        bad = Mapping(dict(worked_mapping.node_map), dict(worked_mapping.edge_path_map))
        bad.node_map[4] = 6
        result = verify_mapping(worked_pattern, worked_data, 2, 2, bad)
        assert not result and "injective" in result.reason

    def test_label_mismatch(self, worked_pattern, worked_data, worked_mapping):
        bad = Mapping(dict(worked_mapping.node_map), dict(worked_mapping.edge_path_map))
        bad.node_map[1] = 5  # label matches but then paths break; force a label error
        bad.node_map[3] = 9
        result = verify_mapping(worked_pattern, worked_data, 2, 2, bad)
        assert not result and "label" in result.reason

    def test_wrong_ends(self, worked_pattern, worked_data, worked_mapping):
        bad = Mapping(dict(worked_mapping.node_map), dict(worked_mapping.edge_path_map))
        bad.edge_path_map[(3, 4)] = (6, 9, 8)
        result = verify_mapping(worked_pattern, worked_data, 2, 2, bad)
        assert not result and "endpoints" in result.reason

    def test_wrong_length(self, worked_pattern, worked_data, worked_mapping):
        result = verify_mapping(worked_pattern, worked_data, 1, 1, worked_mapping)
        assert not result and "length" in result.reason

    def test_non_path(self, worked_pattern, worked_data, worked_mapping):
        bad = Mapping(dict(worked_mapping.node_map), dict(worked_mapping.edge_path_map))
        bad.edge_path_map[(1, 2)] = (2, 5, 8)  # 2-5 is not an edge
        result = verify_mapping(worked_pattern, worked_data, 2, 2, bad)
        assert not result and "non-edge" in result.reason

    def test_non_simple_path(self):
        pattern = LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2)])
        data = LabeledGraph(3, {1: "a", 2: "q", 3: "b"}, [(1, 2), (2, 3)])
        bad = Mapping({1: 1, 2: 3}, {(1, 2): (1, 2, 1, 2, 3)})
        result = verify_mapping(pattern, data, 1, 4, bad)
        assert not result and "simple" in result.reason

    def test_extra_node_map_key_is_rejected(self, worked_pattern, worked_data,
                                            worked_mapping):
        # 99 is no pattern vertex; its image 2 is already the image of vertex 1
        bad = Mapping({**worked_mapping.node_map, 99: 2}, dict(worked_mapping.edge_path_map))
        result = verify_mapping(worked_pattern, worked_data, 2, 2, bad)
        assert not result
        assert "not pattern vertices" in result.reason and "99" in result.reason

    def test_incomplete_mapping_is_an_error(self, worked_pattern, worked_data,
                                            worked_mapping):
        with pytest.raises(ValueError, match="incomplete"):
            verify_mapping(worked_pattern, worked_data, 2, 2, Mapping({}, {}))
        partial = Mapping(dict(worked_mapping.node_map), {})
        with pytest.raises(ValueError, match="incomplete"):
            verify_mapping(worked_pattern, worked_data, 2, 2, partial)

    def test_empty_pattern_accepts_empty_mapping(self, worked_data):
        empty = LabeledGraph(0, {}, [])
        assert verify_mapping(empty, worked_data, 1, 1, Mapping({}, {}))

    def test_invalid_window_is_an_error(self, worked_pattern, worked_data, worked_mapping):
        # (0, -1) once came back as a length mismatch, not as an error
        for l, h in ((0, -1), (0, 2), (3, 2), (1, 2.5), (True, 2)):
            with pytest.raises(ValueError):
                verify_mapping(worked_pattern, worked_data, l, h, worked_mapping)


class TestBoundedSimplePaths:
    def test_worked_example_pair(self, worked_data):
        paths = {tuple(p) for p in bounded_simple_paths(worked_data, 2, 8, 2, 2)}
        assert paths == {(2, 1, 8), (2, 9, 8)}

    def test_direct_edge_at_l1(self, worked_data):
        assert (2, 1) in {tuple(p) for p in bounded_simple_paths(worked_data, 2, 1, 1, 3)}

    def test_same_endpoints_yield_nothing(self, worked_data):
        assert bounded_simple_paths(worked_data, 2, 2, 1, 3) == []

    def test_invalid_window_is_an_error(self, worked_data):
        # (0, -1) once returned the one-edge path (1, 2)
        for l, h in ((0, -1), (0, 2), (3, 2), (1, 2.5), (True, 2)):
            for u, w in ((1, 2), (2, 2)):
                with pytest.raises(ValueError):
                    bounded_simple_paths(worked_data, u, w, l, h)

    def test_invalid_end_is_an_error(self, worked_data):
        # (True, 2) once returned the path (True, 2); the others returned []
        for u, w in ((True, 2), (2, True), (1, 99), (99, 99), (0, 0), (1.0, 2)):
            with pytest.raises(ValueError, match="is not a vertex of the graph"):
                bounded_simple_paths(worked_data, u, w, 1, 2)

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # The one path of a 3,000-vertex path graph, found with far fewer
        # interpreter frames than its length to spare.
        n = 3000
        g = LabeledGraph(n, {v: "a" for v in range(1, n + 1)}, [(v, v + 1) for v in range(1, n)])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            paths = bounded_simple_paths(g, 1, n, 1, n)
        finally:
            sys.setrecursionlimit(limit)
        assert paths == [tuple(range(1, n + 1))]

    def test_all_results_are_simple_bounded_paths(self, worked_data):
        for u, w in itertools.combinations(range(1, 10), 2):
            for p in bounded_simple_paths(worked_data, u, w, 1, 4):
                assert p[0] == u and p[-1] == w
                assert len(set(p)) == len(p)
                assert 1 <= len(p) - 1 <= 4
                assert all(worked_data.has_edge(x, y) for x, y in zip(p, p[1:]))


class TestBruteForceSolve:
    def test_worked_example_has_unique_solution(self, worked_pattern, worked_data,
                                                worked_mapping):
        sols = brute_force_solve(worked_pattern, worked_data, 2, 2)
        assert len(sols) == 1
        assert sols[0].canonical_key() == worked_mapping.canonical_key()

    def test_worked_example_empty_at_3_3(self, worked_pattern, worked_data):
        assert brute_force_solve(worked_pattern, worked_data, 3, 3) == []

    def test_planted_instances_are_satisfiable(self):
        from homeomatch import plant_subdivision
        pattern = LabeledGraph(3, {1: "a", 2: "b", 3: "a"}, [(1, 2), (2, 3)])
        for seed in range(5):
            g = plant_subdivision(pattern, 1, 2, padding=3, seed=seed)
            assert brute_force_solve(pattern, g, 1, 2)

    def test_guard_rejects_large_instances(self, worked_pattern):
        big = random_labeled_graph(15, 2.0, 3, 0)
        with pytest.raises(ValueError, match="guard"):
            brute_force_solve(worked_pattern, big, 1, 2)
        small = random_labeled_graph(8, 2.0, 3, 0)
        with pytest.raises(ValueError, match="guard"):
            brute_force_solve(worked_pattern, small, 1, 5)
        big_pattern = random_labeled_graph(7, 2.0, 3, 0)
        with pytest.raises(ValueError, match="guard"):
            brute_force_solve(big_pattern, small, 1, 2)

    def test_non_int_window_is_rejected(self):
        # a 2.5 window once let a path of length 3 reach the verifier,
        # which failed an internal assertion
        g1 = LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2)])
        g2 = LabeledGraph(4, {1: "a", 2: "x", 3: "x", 4: "b"}, [(1, 2), (2, 3), (3, 4)])
        for l, h in ((1, 2.5), (1.0, 3), (True, 3), (1, "3")):
            with pytest.raises(ValueError, match="must be an int"):
                brute_force_solve(g1, g2, l, h)
        assert len(brute_force_solve(g1, g2, 1, 3)) == 1

    def test_agrees_with_full_cross_product_scan(self):
        """Self-consistency against an even dumber all-tuples filter."""
        def all_tuples_solve(g1, g2, l, h):
            out = []
            edges = g1.sorted_edges()
            cands = {v: [w for w in g2.vertices if g2.label(w) == g1.label(v)]
                     for v in g1.vertices}
            for images in itertools.product(*(cands[v] for v in g1.vertices)):
                if len(set(images)) != g1.n:
                    continue
                f = dict(zip(g1.vertices, images))
                per_edge = [bounded_simple_paths(g2, f[a], f[b], l, h)
                            for a, b in edges]
                for combo in itertools.product(*per_edge):
                    m = Mapping(dict(f), dict(zip(edges, combo)))
                    if verify_mapping(g1, g2, l, h, m):
                        out.append(m.canonical_key())
            return sorted(out)

        for seed in range(8):
            rng = random.Random(seed)
            g1 = random_labeled_graph(rng.randint(2, 3), 1.0, 2, seed + 5)
            g2 = random_labeled_graph(rng.randint(5, 8), 2.5, 2, seed + 50)
            fast = sorted(m.canonical_key() for m in brute_force_solve(g1, g2, 1, 2))
            assert fast == all_tuples_solve(g1, g2, 1, 2), seed

    def test_all_outputs_verify(self):
        for seed in range(10):
            g1 = random_labeled_graph(3, 1.5, 2, seed)
            g2 = random_labeled_graph(9, 2.5, 2, seed + 31)
            for m in brute_force_solve(g1, g2, 1, 3):
                assert verify_mapping(g1, g2, 1, 3, m)


def test_conflict_vertex_detects_inner_on_end():
    # an inner vertex of one path lying on the END of another still conflicts
    assert _conflict_vertex((1, 2, 3), (2, 4)) == 2
    assert _conflict_vertex((1, 2), (2, 3)) is None  # shared end only
    assert _conflict_vertex((1, 2), (1, 2)) is None  # no inner vertices at all
