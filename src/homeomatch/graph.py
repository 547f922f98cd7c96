"""Vertex-labeled undirected graphs: construction, text I/O, instance generators.

Graph text format (UTF-8, one record per line):

    n <vertex_count> m <edge_count>
    v <id> <label>
    e <u> <w>

Vertex ids are dense 1-based integers and labels are whitespace-free
tokens.  A file declares exactly ``vertex_count`` ``v`` lines (ids 1..n
in any order) and ``edge_count`` ``e`` lines; ``#`` starts a comment
line and blank lines are ignored.  Self-loops and repeated edges are
rejected.  Serialization writes vertices in ascending id order and
edges in lexicographic (min, max) order, so generated files are
byte-stable.
"""

from __future__ import annotations

import random

__all__ = [
    "GraphFormatError",
    "LabeledGraph",
    "parse_graph",
    "serialize_graph",
    "load_graph",
    "save_graph",
    "check_window",
    "check_random_graph_args",
    "random_labeled_graph",
    "plant_subdivision",
]


class GraphFormatError(ValueError):
    """Malformed graph or mapping text; the message carries the line number."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class LabeledGraph:
    """Immutable simple undirected graph with one label per vertex.

    Vertices are the integers ``1..n``; an edge end or a label key that
    is not an int, or is a bool, is rejected.  A label is a non-empty string
    without whitespace, so that the text format can hold it.  Instances
    never mutate after construction, so they are safe to share between
    concurrent searches.
    """

    __slots__ = ("n", "edges", "_labels", "_adj")

    def __init__(self, n: int, labels, edges):
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count must be an int >= 0, not {n!r}")
        self.n = n
        lab = {}
        for v, token in dict(labels).items():
            if type(v) is not int:
                raise ValueError(f"label given for vertex id {v!r}, which is not an int")
            if not 1 <= v <= n:
                raise ValueError(f"label given for unknown vertex {v}")
            label = lab[v] = str(token)
            if label.split() != [label]:
                raise ValueError(f"label {label!r} of vertex {v} is empty or holds whitespace")
        if len(lab) != n:
            missing = next(v for v in range(1, n + 1) if v not in lab)
            raise ValueError(f"vertex {missing} has no label")
        self._labels = tuple(lab[v] for v in range(1, n + 1))
        seen = set()
        for u, w in edges:
            if type(u) is not int or type(w) is not int:
                raise ValueError(f"edge ({u!r}, {w!r}) has an end that is not an int")
            if not 1 <= u <= n or not 1 <= w <= n:
                raise ValueError(f"edge ({u}, {w}) references an unknown vertex")
            if u == w:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, w) if u < w else (w, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        self.edges = frozenset(seen)
        adj = [[] for _ in range(n + 1)]
        # Walking the pairs in sorted order appends each vertex's smaller
        # neighbours, then its larger ones, both ascending.
        for u, w in sorted(seen):
            adj[u].append(w)
            adj[w].append(u)
        self._adj = tuple(tuple(nbrs) for nbrs in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def _check_vertex(self, v: int):
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")

    def label(self, v: int) -> str:
        self._check_vertex(v)
        return self._labels[v - 1]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple:
        self._check_vertex(v)
        return self._adj[v]

    def has_edge(self, u: int, w: int) -> bool:
        key = (u, w) if u < w else (w, u)
        return key in self.edges

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __eq__(self, other):
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (self.n == other.n and self._labels == other._labels
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self._labels, self.edges))

    def __repr__(self):
        return f"LabeledGraph(n={self.n}, m={self.m})"


def parse_graph(text: str) -> LabeledGraph:
    """Parse the graph text format, reporting problems with line numbers."""
    n = m = None
    labels: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 4 or parts[0] != "n" or parts[2] != "m":
                raise GraphFormatError("expected header 'n <count> m <count>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[3])
            except ValueError:
                raise GraphFormatError("header counts must be integers", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("header counts must be non-negative", lineno)
            continue
        kind = parts[0]
        if kind == "v":
            if len(parts) != 3:
                raise GraphFormatError("expected 'v <id> <label>'", lineno)
            try:
                vid = int(parts[1])
            except ValueError:
                raise GraphFormatError("vertex id must be an integer", lineno) from None
            if not 1 <= vid <= n:
                raise GraphFormatError(f"vertex id {vid} outside 1..{n}", lineno)
            if vid in labels:
                raise GraphFormatError(f"duplicate vertex declaration {vid}", lineno)
            labels[vid] = parts[2]
        elif kind == "e":
            if len(parts) != 3:
                raise GraphFormatError("expected 'e <u> <w>'", lineno)
            try:
                u, w = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("edge endpoints must be integers", lineno) from None
            for x in (u, w):
                if not 1 <= x <= n:
                    raise GraphFormatError(f"unknown vertex {x} in edge line", lineno)
            if u == w:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            key = (u, w) if u < w else (w, u)
            if key in edge_set:
                raise GraphFormatError(f"duplicate edge {key}", lineno)
            edge_set.add(key)
            edges.append(key)
        else:
            raise GraphFormatError(f"unrecognized record {kind!r}", lineno)
    if n is None:
        raise GraphFormatError("missing header line 'n <count> m <count>'")
    if len(labels) != n:
        raise GraphFormatError(f"declared {n} vertices but found {len(labels)} 'v' lines")
    if len(edges) != m:
        raise GraphFormatError(f"declared {m} edges but found {len(edges)} 'e' lines")
    return LabeledGraph(n, labels, edges)


def serialize_graph(g: LabeledGraph) -> str:
    """Byte-stable text form: vertices ascending, edges in (min, max) order."""
    lines = [f"n {g.n} m {g.m}"]
    lines.extend(f"v {v} {g.label(v)}" for v in g.vertices)
    lines.extend(f"e {u} {w}" for u, w in g.sorted_edges())
    return "\n".join(lines) + "\n"


def load_graph(path) -> LabeledGraph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def save_graph(path, g: LabeledGraph):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_graph(g))


def check_random_graph_args(n: int, avg_degree: float, label_count: int):
    """Raise ValueError unless ``random_labeled_graph`` accepts these arguments."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int >= 1, not {n!r}")
    if type(label_count) is not int or label_count < 1:
        raise ValueError(f"label_count must be an int >= 1, not {label_count!r}")
    if type(avg_degree) not in (int, float) or not 0 <= avg_degree < n:
        raise ValueError(f"avg_degree must be an int or float in [0, n); "
                         f"got {avg_degree!r} for n={n}")


def _sample_pairs(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """The pairs ``(u, w)``, ``1 <= u < w <= n``, whose coin flip is below ``p``.

    Gives the same edges, in the same order, and leaves ``rng`` in the
    same state as the plain loop that tests ``rng.random() < p`` once per
    pair in lexicographic order, but draws each vertex's flips with one
    ``getrandbits`` call.  It rests on two facts of CPython's Mersenne
    Twister, unchanged since Python 2.3:

    - ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` for two
      consecutive 32-bit outputs ``a`` and ``b``;
    - ``getrandbits(64 * k)`` holds the next ``2 * k`` outputs, the first
      in the lowest 32 bits.

    So in the little-endian bytes of that draw, flip ``i`` has ``a`` at
    bytes ``8i..8i+3`` and ``b`` at ``8i+4..8i+7``.  A flip whose top byte
    ``raw[8i+3]`` is ``T`` lies in ``[T/256, (T+1)/256)``.  With
    ``t = floor(p * 256)`` (exact, capped at 255), ``T < t`` is an edge and
    ``T > t`` never is; only ``T == t`` needs the exact value.  One
    ``translate`` of ``raw[3::8]`` marks the bytes ``<= t`` for
    ``bytes.find``.  One draw per vertex keeps the extra memory O(n).
    """
    t = min(255, int(p * 256))
    marks = bytes(0 if byte <= t else 1 for byte in range(256))
    edges = []
    for u in range(1, n):
        k = n - u
        raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        top = raw[3::8]
        flags = top.translate(marks)
        i = flags.find(0)
        while i >= 0:
            if top[i] < t:
                edges.append((u, u + 1 + i))
            else:
                x = int.from_bytes(raw[8 * i:8 * i + 8], "little")
                a, b = x & 0xFFFFFFFF, x >> 32
                if ((a >> 5) * 67108864 + (b >> 6)) / 9007199254740992 < p:
                    edges.append((u, u + 1 + i))
            i = flags.find(0, i + 1)
    return edges


def random_labeled_graph(n: int, avg_degree: float, label_count: int,
                         seed: int) -> LabeledGraph:
    """Seeded connected random graph with uniformly distributed labels.

    Each vertex pair is linked independently with probability
    ``p = avg_degree / (n - 1)``.  If the sample comes out disconnected,
    uniformly random cross-component edges are added until it is
    connected, which preserves the expected density closely.  Labels are
    drawn uniformly from ``label_count`` tokens ``L0..L{k-1}``.  Output
    is fully determined by the arguments.

    The pair flips read the same Mersenne Twister stream as one
    ``rng.random() < p`` per pair in lexicographic order, but
    ``_sample_pairs`` draws each vertex's flips with one ``getrandbits``
    call.  That equivalence assumes how CPython builds ``random()`` and
    ``getrandbits`` from 32-bit twister outputs, unchanged since Python
    2.3; ``_sample_pairs`` states the derivation.
    """
    check_random_graph_args(n, avg_degree, label_count)
    rng = random.Random(seed)
    tokens = [f"L{i}" for i in range(label_count)]
    labels = {v: rng.choice(tokens) for v in range(1, n + 1)}
    edges = _sample_pairs(rng, n, min(1.0, avg_degree / (n - 1))) if n > 1 else []

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


def check_window(l: int, h: int):
    """Raise ValueError unless l and h are ints, not bools, with 1 <= l <= h."""
    for name, value in (("l", l), ("h", h)):
        if type(value) is not int:
            raise ValueError(f"path length {name} must be an int, not {value!r}")
    if l < 1:
        raise ValueError("minimum path length l must be >= 1")
    if h < l:
        raise ValueError("maximum path length h must be >= l")


def plant_subdivision(pattern: LabeledGraph, l: int, h: int, padding: int = 0,
                      seed: int = 0, return_witness: bool = False):
    """Data graph guaranteed to contain the pattern as an (l, h)-topological minor.

    Every pattern edge is replaced by a fresh path whose length is drawn
    uniformly from ``[l, h]``; the inner vertices are brand new, so the
    planted paths are pairwise independent by construction.  Afterwards
    ``padding`` extra vertices with random labels and attachments are
    mixed in, which can only add structure and never invalidates the
    planted witness.  With ``return_witness=True`` the planted mapping
    (identity on pattern vertices) is returned alongside the graph.
    """
    check_window(l, h)
    if type(padding) is not int or padding < 0:
        raise ValueError(f"padding must be an int >= 0, not {padding!r}")
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
    if not return_witness:
        return g
    from .mapping import Mapping

    witness = Mapping({v: v for v in pattern.vertices}, paths)
    return g, witness
