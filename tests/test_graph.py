import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeomatch import (
    GraphFormatError,
    LabeledGraph,
    parse_graph,
    plant_subdivision,
    random_labeled_graph,
    serialize_graph,
)
from homeomatch.oracle import brute_force_solve, verify_mapping


def test_parse_minimal_graph():
    g = parse_graph("n 2 m 1\nv 1 a\nv 2 b\ne 1 2\n")
    assert g.n == 2
    assert g.m == 1
    assert g.label(1) == "a"
    assert g.has_edge(2, 1)


def test_parse_worked_data_fixture(worked_data):
    assert worked_data.n == 9
    assert worked_data.m == 11
    assert worked_data.degree(5) == 2
    assert worked_data.degree(2) == 3
    assert worked_data.label(9) == "x"


def test_parse_ignores_comments_and_blanks():
    text = "# a comment\n\nn 1 m 0\n\n# another\nv 1 q\n"
    assert parse_graph(text).n == 1


@pytest.mark.parametrize("text, lineno, needle", [
    ("m 2 n 1\n", 1, "header"),
    ("n 2 m 1\nv 1 a\nv 2 b\ne 1 1\n", 4, "self-loop"),
    ("n 2 m 1\nv 1 a\nv 2 b\ne 1 3\n", 4, "unknown vertex"),
    ("n 2 m 1\nv 1 a\nv 1 b\ne 1 2\n", 3, "duplicate vertex"),
    ("n 2 m 2\nv 1 a\nv 2 b\ne 1 2\ne 2 1\n", 5, "duplicate edge"),
    ("n 2 m 1\nv 1 a\nv 9 b\ne 1 2\n", 3, "outside"),
    ("n x m 1\n", 1, "integer"),
])
def test_parse_errors_carry_line_numbers(text, lineno, needle):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert needle in str(err.value)
    assert err.value.lineno == lineno


def test_parse_rejects_wrong_counts():
    with pytest.raises(GraphFormatError, match="2 vertices"):
        parse_graph("n 2 m 0\nv 1 a\n")
    with pytest.raises(GraphFormatError, match="1 edges"):
        parse_graph("n 2 m 1\nv 1 a\nv 2 b\n")


def test_serialize_is_sorted_and_stable(worked_data):
    text = serialize_graph(worked_data)
    lines = text.splitlines()
    assert lines[0] == "n 9 m 11"
    assert lines[1:10] == [f"v {v} {worked_data.label(v)}" for v in range(1, 10)]
    assert lines[10:] == [f"e {u} {w}" for u, w in worked_data.sorted_edges()]
    assert serialize_graph(worked_data) == text


def test_round_trip_worked_fixtures(worked_pattern, worked_data):
    for g in (worked_pattern, worked_data):
        assert parse_graph(serialize_graph(g)) == g


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_round_trip_random_graphs(seed):
    g = random_labeled_graph(1 + seed % 30, min(3.0, seed % 30), 4, seed)
    assert parse_graph(serialize_graph(g)) == g


def test_degree_basics():
    k4 = LabeledGraph(4, {v: "a" for v in range(1, 5)},
                      [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert all(k4.degree(v) == 3 for v in k4.vertices)
    isolated = LabeledGraph(1, {1: "a"}, [])
    assert isolated.degree(1) == 0
    with pytest.raises(ValueError):
        k4.degree(5)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_degree_sums_to_twice_edge_count(seed):
    n = 3 + seed % 40
    g = random_labeled_graph(n, 2.0, 3, seed)
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.m
    for v in g.vertices:
        nbrs = g.neighbors(v)
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))


def test_graph_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph(2, {1: "a", 2: "b"}, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate edge"):
        LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="no label"):
        LabeledGraph(2, {1: "a"}, [])
    with pytest.raises(ValueError, match="unknown vertex"):
        LabeledGraph(2, {1: "a", 2: "b"}, [(1, 3)])
    # save_graph would write these ids, and load_graph reject them
    for edge in ((True, 2), (1, 2.0), (1.0, 2), ("1", 2)):
        with pytest.raises(ValueError, match="not an int"):
            LabeledGraph(3, {1: "a", 2: "b", 3: "c"}, [edge])
    for key in (1.0, True, "1"):
        with pytest.raises(ValueError, match="not an int"):
            LabeledGraph(1, {key: "a"}, [])
    for n in (-1, 2.5, True, "2"):
        with pytest.raises(ValueError, match="vertex count must be an int"):
            LabeledGraph(n, {}, [])
    # the text format could not read these labels back
    for label in ("a b", "", "x\ty", "z\n"):
        with pytest.raises(ValueError, match="empty or holds whitespace"):
            LabeledGraph(2, {1: label, 2: "c"}, [(1, 2)])


class TestRandomLabeledGraph:
    def test_single_vertex(self):
        g = random_labeled_graph(1, 0, 3, 7)
        assert g.n == 1 and g.m == 0

    def test_same_seed_same_graph(self):
        a = random_labeled_graph(50, 3.0, 5, 42)
        b = random_labeled_graph(50, 3.0, 5, 42)
        assert a == b
        assert a != random_labeled_graph(50, 3.0, 5, 43)

    def test_connected_across_seeds(self):
        for seed in range(25):
            assert random_labeled_graph(40, 1.5, 3, seed).is_connected()

    def test_mean_degree_close_to_target(self):
        g = random_labeled_graph(1000, 4.0, 20, 7)
        mean = 2 * g.m / g.n
        assert abs(mean - 4.0) / 4.0 < 0.10
        assert g.is_connected()

    def test_labels_come_from_requested_universe(self):
        g = random_labeled_graph(200, 2.0, 3, 5)
        assert {g.label(v) for v in g.vertices} <= {"L0", "L1", "L2"}

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            random_labeled_graph(5, 5.0, 2, 0)
        with pytest.raises(ValueError):
            random_labeled_graph(0, 1.0, 2, 0)
        with pytest.raises(ValueError):
            random_labeled_graph(5, 2.0, 0, 0)
        with pytest.raises(ValueError):
            random_labeled_graph(5, float("nan"), 2, 0)
        for n in (2.5, True):
            with pytest.raises(ValueError, match="n must be an int"):
                random_labeled_graph(n, 0.5, 2, 0)
        for label_count in (2.5, True):
            with pytest.raises(ValueError, match="label_count must be an int"):
                random_labeled_graph(5, 2.0, label_count, 0)
        for avg_degree in (True, False, "2", None):
            with pytest.raises(ValueError, match="avg_degree must be an int or float"):
                random_labeled_graph(5, avg_degree, 2, 0)
        # avg_degree == n-1 means a complete graph, which is fine
        g = random_labeled_graph(5, 4.0, 2, 0)
        assert g.m == 10


class TestPlantSubdivision:
    def test_identity_subdivision_of_edge(self):
        k2 = LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2)])
        assert plant_subdivision(k2, 1, 1, padding=0, seed=3) == k2

    def test_four_cycle_doubles_into_eight_cycle(self):
        c4 = LabeledGraph(4, {1: "a", 2: "b", 3: "a", 4: "b"},
                          [(1, 2), (2, 3), (3, 4), (1, 4)])
        g = plant_subdivision(c4, 2, 2, padding=0, seed=1)
        assert g.n == 8
        assert g.m == 8
        assert all(g.degree(v) == 2 for v in g.vertices)
        assert g.is_connected()

    def test_witness_passes_verification(self):
        k4 = LabeledGraph(4, {1: "a", 2: "b", 3: "c", 4: "d"},
                          [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        g, witness = plant_subdivision(k4, 1, 3, padding=20, seed=3, return_witness=True)
        assert verify_mapping(k4, g, 1, 3, witness)

    def test_small_plants_found_by_oracle(self):
        pattern = LabeledGraph(3, {1: "a", 2: "b", 3: "c"}, [(1, 2), (2, 3)])
        for seed in range(5):
            g = plant_subdivision(pattern, 1, 2, padding=4, seed=seed)
            assert g.n <= 14
            assert brute_force_solve(pattern, g, 1, 2)

    def test_deterministic(self):
        pattern = LabeledGraph(3, {1: "a", 2: "a", 3: "b"}, [(1, 2), (2, 3)])
        assert plant_subdivision(pattern, 1, 3, 10, 9) == plant_subdivision(pattern, 1, 3, 10, 9)

    def test_parameter_validation(self):
        k2 = LabeledGraph(2, {1: "a", 2: "b"}, [(1, 2)])
        with pytest.raises(ValueError):
            plant_subdivision(k2, 0, 1)
        with pytest.raises(ValueError):
            plant_subdivision(k2, 2, 1)
        for padding in (-1, 2.5, True):
            with pytest.raises(ValueError, match="padding must be an int"):
                plant_subdivision(k2, 1, 1, padding=padding)
        for l, h in ((True, 2), (1, 2.5), (1.0, 2), (1, "2")):
            with pytest.raises(ValueError, match="must be an int"):
                plant_subdivision(k2, l, h)
        assert plant_subdivision(k2, 3, 3).n == 4
