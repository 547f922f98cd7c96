"""The random-graph generator: pinned output, the bulk pair draw, its memory."""

import hashlib
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homeomatch.graph import _sample_pairs, random_labeled_graph, serialize_graph

from conftest import DATA_DIR

# sha256 of serialize_graph(random_labeled_graph(n, avg_degree, label_count,
# seed)), recorded with the one-rng.random()-per-pair generator.
DIGESTS = json.loads((DATA_DIR / "generator_digests.json").read_text())


@pytest.mark.parametrize(
    "case", DIGESTS,
    ids=[f"n{c['n']}-d{c['avg_degree']}-s{c['seed']}" for c in DIGESTS])
def test_generator_output_matches_recorded_digest(case):
    g = random_labeled_graph(case["n"], case["avg_degree"], case["label_count"], case["seed"])
    assert hashlib.sha256(serialize_graph(g).encode()).hexdigest() == case["sha256"]


def plain_pairs(rng, n, p):
    """The plain loop: one ``rng.random()`` per pair, in lexicographic order."""
    edges = []
    for u in range(1, n + 1):
        for w in range(u + 1, n + 1):
            if rng.random() < p:
                edges.append((u, w))
    return edges


@st.composite
def sizes(draw):
    n = draw(st.integers(1, 300))
    return n, draw(st.floats(0, n, exclude_max=True))


# The first flip a seed-5 sampler draws; at n = 2 the density is p itself.
FIRST_FLIP = random.Random(5).random()


@given(case=sizes(), seed=st.integers(0, 2**64))
@example(case=(300, 0.5), seed=1)        # t = 0: every candidate is tested exactly
@example(case=(257, 255.5), seed=2)      # t = 255 with p < 1
@example(case=(50, 49.0), seed=3)        # p = 1
@example(case=(257, 4.0), seed=4)        # p * 256 integral
@example(case=(2, FIRST_FLIP), seed=5)   # top byte == t, flip == p: no edge
@example(case=(2, math.nextafter(FIRST_FLIP, 1)), seed=5)  # top byte == t, flip < p: edge
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_pair_sampler_matches_plain_loop(case, seed):
    n, avg_degree = case
    p = min(1.0, avg_degree / (n - 1)) if n > 1 else 1.0
    bulk, plain = random.Random(seed), random.Random(seed)
    assert _sample_pairs(bulk, n, p) == plain_pairs(plain, n, p)
    assert bulk.random() == plain.random()


def test_generator_memory_grows_linearly():
    tracemalloc.start()
    try:
        random_labeled_graph(4000, 4.0, 20, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
