"""Seeded instances for the three workloads, built apart from the program.

The two generators below copy the algorithms of
``homeomatch.graph.random_labeled_graph`` and ``plant_subdivision`` as
they stood when the benchmark was written, draw for draw, so a seed
gives the same graph as the shipped specs did.  The solver is measured
on these copies; the program's own generators are timed as a separate
operation, so a later change to them cannot change what the search is
measured on.

Seeds: ``--seed s`` shifts the ``seed_base`` of the shipped specs by
``s`` for the seeded instances.  Instance ``(idx, rep)`` of a spec uses
``base = seed_base + s + 7919 * idx + 104729 * rep`` with pattern seed
``2 * base + 1`` and data seed ``2 * base``, which is the formula of
``homeomatch.bench.run_experiment``; seed 0 therefore reproduces the
shipped ``strategy_stability`` and ``exp1_data_scale`` instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from homeomatch.graph import LabeledGraph
from homeomatch.mapping import Mapping

STRATEGY_STABILITY_SEED_BASE = 101
EXP1_SEED_BASE = 11

# dense-index: the strategy_stability family.  Repetition 2 of the shipped
# spec runs under every seed: there ndshd1 makes 185 recursion calls, most of
# their time in kill/undo bookkeeping.  Repetition 0, where ndshd1 makes
# 3,145 calls, is left out: that one call takes 9-14 s and would leave a
# single round per run.  The seeded repetitions are run by ndshd2 only:
# ndshd1's search on a fresh dense instance now and then takes tens of
# seconds, which no affordable number of instances averages out.
DENSE_N2, DENSE_DEGREE, DENSE_LABELS, DENSE_N1 = 500, 10.0, 6, 5
DENSE_FIXED_REP, DENSE_SEEDED_REPS = 2, (3, 4)
# sparse-scale: the exp1_data_scale family, every sweep point and repetition.
SPARSE_N2 = (200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000)
SPARSE_REPS, SPARSE_DEGREE, SPARSE_LABELS, SPARSE_N1 = 5, 4.0, 20, 4
# planted-deep (a): long path patterns decided by both strategies.
DEEP_SIZES, DEEP_LABELS, DEEP_PADDING = (100, 150, 200, 250), 7, 50
# planted-deep (b): enumeration on small planted patterns with an l > 1 window.
ENUM_SIZES, ENUM_DEGREE, ENUM_LABELS, ENUM_PADDING = (6, 9, 12, 15, 18, 21, 24, 27, 30), 2.5, 4, 300
ENUM_SEED = "planted-deep-enumerate"
# planted-deep (c): ndshd2 exceeds the default recursion limit on this pattern.
# Its inputs do not depend on the seed.
FAILING_SIZE, FAILING_SEED = 400, 400


def random_labeled_graph(n: int, avg_degree: float, label_count: int,
                         seed: int) -> LabeledGraph:
    """Copy of the program's G(n, p) generator with connectivity repair."""
    rng = random.Random(seed)
    tokens = [f"L{i}" for i in range(label_count)]
    labels = {v: rng.choice(tokens) for v in range(1, n + 1)}
    edges: list[tuple[int, int]] = []
    if n > 1:
        p = min(1.0, avg_degree / (n - 1))
        for u in range(1, n + 1):
            for w in range(u + 1, n + 1):
                if rng.random() < p:
                    edges.append((u, w))
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            components -= 1
    while components > 1:
        u = rng.randrange(1, n + 1)
        w = rng.randrange(1, n + 1)
        ru, rw = find(u), find(w)
        if ru != rw:
            edges.append((u, w) if u < w else (w, u))
            parent[ru] = rw
            components -= 1
    return LabeledGraph(n, labels, edges)


def plant_subdivision(pattern: LabeledGraph, l: int, h: int, padding: int,
                      seed: int) -> tuple[LabeledGraph, Mapping]:
    """Copy of the program's planted-subdivision generator, with its witness."""
    rng = random.Random(seed)
    labels = {v: pattern.label(v) for v in pattern.vertices}
    pool = sorted(set(labels.values()))
    edges: list[tuple[int, int]] = []
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    nxt = pattern.n + 1
    for a, b in pattern.sorted_edges():
        k = rng.randint(l, h)
        chain = [a]
        for _ in range(k - 1):
            labels[nxt] = rng.choice(pool)
            chain.append(nxt)
            nxt += 1
        chain.append(b)
        edges.extend(zip(chain, chain[1:]))
        paths[(a, b)] = tuple(chain)
    for _ in range(padding):
        vid = nxt
        nxt += 1
        labels[vid] = rng.choice(pool) if pool else "L0"
        existing = vid - 1
        if existing:
            for t in rng.sample(range(1, vid), min(rng.randint(1, 2), existing)):
                edges.append((t, vid))
    g = LabeledGraph(nxt - 1, labels, edges)
    return g, Mapping({v: v for v in pattern.vertices}, paths)


def unique_label_pattern(n1: int, avg_degree: float, universe: int,
                         seed: int) -> LabeledGraph:
    """The shipped specs' ``"unique"`` pattern: distinct tokens from the universe."""
    g = random_labeled_graph(n1, avg_degree, universe, seed)
    rng = random.Random(f"{seed}-pattern-labels")
    tokens = rng.sample([f"L{i}" for i in range(universe)], n1)
    return LabeledGraph(g.n, {v: tokens[v - 1] for v in g.vertices}, g.edges)


def path_pattern(n: int, label_count: int, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    labels = {v: f"L{rng.randrange(label_count)}" for v in range(1, n + 1)}
    return LabeledGraph(n, labels, [(v, v + 1) for v in range(1, n)])


def spec_seeds(seed_base: int, idx: int, rep: int) -> tuple[int, int]:
    """(pattern seed, data seed) of ``bench.run_experiment`` for one instance."""
    base = seed_base + 7919 * idx + 104729 * rep
    return 2 * base + 1, 2 * base


@dataclass
class Instance:
    """One solver input plus what the benchmark knows about it.

    ``gen`` holds the arguments under which the program's own generator
    is timed on this instance's parameters: ``("random", n, d, k, seed)``
    or ``("planted", l, h, padding, seed)`` with the pattern as input.
    """

    name: str
    g1: LabeledGraph
    g2: LabeledGraph
    l: int
    h: int
    gen: tuple
    planted: Mapping | None = None


def dense_index(seed: int) -> tuple[Instance, list[Instance]]:
    """(the fixed instance for both strategies, seeded instances for ndshd2)."""
    def make(base, rep):
        ps, ds = spec_seeds(base, 0, rep)
        g1 = unique_label_pattern(DENSE_N1, DENSE_N1 - 1, DENSE_LABELS, ps)
        g2 = random_labeled_graph(DENSE_N2, DENSE_DEGREE, DENSE_LABELS, ds)
        return Instance(f"dense/base{base}/rep{rep}", g1, g2, 1, 3,
                        ("random", DENSE_N2, DENSE_DEGREE, DENSE_LABELS, ds))

    fixed = make(STRATEGY_STABILITY_SEED_BASE, DENSE_FIXED_REP)
    seeded = [make(STRATEGY_STABILITY_SEED_BASE + seed, rep) for rep in DENSE_SEEDED_REPS]
    return fixed, seeded


def sparse_scale(seed: int) -> tuple[list[Instance], list[Instance]]:
    """(seeded instances, fixed instances for enumeration).

    Enumeration runs on the shipped repetition 0 of every size: most
    positive instances have only a handful of witnesses, and how many
    varies so much from seed to seed that a seeded set would swing
    ``witnesses_per_s`` by a third.
    """
    def make(seed_base, idx, rep):
        n2 = SPARSE_N2[idx]
        ps, ds = spec_seeds(seed_base, idx, rep)
        g1 = unique_label_pattern(SPARSE_N1, SPARSE_N1 - 1, SPARSE_LABELS, ps)
        g2 = random_labeled_graph(n2, SPARSE_DEGREE, SPARSE_LABELS, ds)
        return Instance(f"sparse/base{seed_base}/n{n2}/rep{rep}", g1, g2, 1, 3,
                        ("random", n2, SPARSE_DEGREE, SPARSE_LABELS, ds))

    seeded = [make(EXP1_SEED_BASE + seed, idx, rep)
              for idx in range(len(SPARSE_N2)) for rep in range(SPARSE_REPS)]
    fixed = [make(EXP1_SEED_BASE, idx, 0) for idx in range(len(SPARSE_N2))]
    return seeded, fixed


def _planted(name, g1, l, h, padding, plant_seed) -> Instance:
    g2, witness = plant_subdivision(g1, l, h, padding, plant_seed)
    return Instance(name, g1, g2, l, h, ("planted", l, h, padding, plant_seed), planted=witness)


def planted_deep(seed: int) -> tuple[list[Instance], list[Instance], Instance]:
    """(deep path instances, enumeration instances, the failing deep instance).

    Only the deep path instances depend on the seed.  The enumeration
    instances are one fixed draw: their time to the first witness is
    heavy-tailed across patterns, so a seeded draw of affordable size
    would move ``search_s`` and ``witnesses_per_s`` by more than their
    bounds from one seed to the next.
    """
    rng = random.Random(f"planted-deep-{seed}")
    deep = [_planted(f"deep/path{n}", path_pattern(n, DEEP_LABELS, rng.randrange(2**31)),
                     1, 2, DEEP_PADDING, rng.randrange(2**31))
            for n in DEEP_SIZES]
    rng = random.Random(ENUM_SEED)
    enum = [_planted(f"enum/n{n}",
                     random_labeled_graph(n, ENUM_DEGREE, ENUM_LABELS, rng.randrange(2**31)),
                     2, 3, ENUM_PADDING, rng.randrange(2**31))
            for n in ENUM_SIZES]
    failing = _planted(f"failing/path{FAILING_SIZE}",
                       path_pattern(FAILING_SIZE, DEEP_LABELS, FAILING_SEED),
                       1, 2, DEEP_PADDING, FAILING_SEED)
    return deep, enum, failing
