"""Backtracking search for node-disjoint subgraph homeomorphism.

Decides whether a vertex-labeled pattern graph embeds into a labeled
data graph as an (l, h)-topological minor: an injective label-preserving
node map plus one simple data path of length l..h per pattern edge, all
mapped paths pairwise independent (no path contains an inner vertex of
another).  Two strategies share one engine:

* ``ndshd1`` completes the whole node mapping first and only then
  assigns paths to edges (two-level search);
* ``ndshd2`` assigns paths for the edges a node match completes before
  matching the next node (interleaved search), so conflicts surface
  while the partial solution is still small.

Both strategies are sound and complete and return the same boolean on
every input; ``enumerate_all`` streams every distinct witness.  They run
in one explicit-stack search loop (``_Engine``) whose depth is not
bounded by Python's recursion limit; the strategy only decides which
state follows a match.

The search keeps two mutable structures per state: a binary candidate
matrix (pattern rows over data columns, seeded by the label-and-degree
rule) and a :class:`~homeomatch.pathindex.PathStore` of bounded simple
paths between candidate branch nodes.  Every match shrinks them, and
soundness rests on what each shrink keeps true, not on a re-check when
a candidate is tried.  A match takes data vertices: a node match its
image, a path match the path's inner vertices.  Both apply one rule:

* a taken vertex kills every alive path running through it, that is,
  having it strictly inside (the committed path itself excepted), and
  is stripped from every unmatched row.  So no alive path of a pending
  edge has a taken vertex inside it, and no unmatched row holds one.
  A path of a pending edge ends at two matched images, and no matched
  image is a committed inner vertex, so such a path holds no committed
  inner vertex anywhere.  Paths that merely end at a committed inner
  vertex stay alive but are never read;
* at the root and after every match, node-candidate cells are cleared
  when no selection of pairwise-independent witness paths can serve
  the cell's incident pattern edges.

Candidates are therefore read straight from the matrix rows and the
store's alive paths.

Backtracking restores state exactly.  Matrix rows are immutable, so a
change binds a new row and a snapshot is the list of row references;
the path store's alive flags, counters and reachability sets are rolled
back through undo tokens in reverse order.  Only the store's batch
clock and per-end stamps and the refinement's record of verified cells
outlive a pop; they only grow and never change a result.  A search
owns its state and is single-threaded; the input graphs are never
modified.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

from .graph import LabeledGraph
from .mapping import Mapping
from .pathindex import (
    SearchTimeout,
    candidate_branch_nodes,
    check_length_window,
    enumerate_paths,
)

__all__ = [
    "SearchTimeout",
    "SearchConfig",
    "SearchStats",
    "CompatibleMatrix",
    "initial_compatible_matrix",
    "MatchState",
    "Mapping",
    "new_edges_emergent",
    "ndshd1",
    "ndshd2",
    "enumerate_all",
]

STRATEGIES = ("ndshd1", "ndshd2")
ORDERS = ("mcf", "ascending")


@dataclass
class SearchConfig:
    """Tie-breaking, the witness cap and the deadline of one search.

    ``order`` selects the next pattern row / pending edge: ``mcf`` takes
    the one with the fewest candidates (ties by ascending id), while
    ``ascending`` uses plain id order.  Candidate data vertices and
    candidate paths are always tried in ascending order.  Every pruning
    rule always runs: the search reads its candidates straight from the
    pruned matrix and store, so the rules are what keep it sound.

    ``witness_cap`` bounds the work refinement spends on one cell: it
    counts path attempts of the witness pick, one per path tried, in
    requirement order and in ascending path id within each requirement
    (see ``MatchState.refine_compatibility``).  A cell whose pick runs
    past the cap is kept, so the cap never changes the solution set.
    """

    order: str = "mcf"
    witness_cap: int = 10_000
    deadline: float | None = None

    def __post_init__(self):
        if self.order not in ORDERS:
            raise ValueError(f"unknown order {self.order!r}")


@dataclass
class SearchStats:
    """Counters collected during one search run.

    ``recursion_calls`` counts attempted matches (one per pair pushed),
    ``states_explored`` counts state entries, and the optional trace
    records ``(call index, depth, phase)`` per attempted match, which is
    enough to reconstruct recursion-depth plots.  The mean backtrack
    depth averages the depth of abandoned states.
    """

    outcome: bool | None = None
    wall_time: float = 0.0
    setup_time: float = 0.0
    recursion_calls: int = 0
    states_explored: int = 0
    max_depth: int = 0
    backtracks: int = 0
    backtrack_depth_sum: int = 0
    trace: list[tuple[int, int, str]] | None = None

    @property
    def mean_backtrack_depth(self) -> float:
        if not self.backtracks:
            return 0.0
        return self.backtrack_depth_sum / self.backtracks

    def as_dict(self, include_timing: bool = True) -> dict:
        d = {
            "outcome": self.outcome,
            "recursion_calls": self.recursion_calls,
            "states_explored": self.states_explored,
            "max_depth": self.max_depth,
            "backtracks": self.backtracks,
            "mean_backtrack_depth": round(self.mean_backtrack_depth, 6),
        }
        if include_timing:
            d["wall_time_s"] = self.wall_time
            d["setup_s"] = self.setup_time
        if self.trace is not None:
            d["trace"] = [list(t) for t in self.trace]
        return d


class CompatibleMatrix:
    """Binary candidate matrix between pattern rows and data columns.

    Row i is the frozenset of data vertices still admissible for pattern
    vertex i.  Within one state's lifetime refinement only ever clears
    cells; every 1 of any later state was a 1 of the initial matrix.

    A row is never mutated: a change binds a new frozenset to ``rows[i]``,
    so a snapshot is the list of row references and shares every row
    with the live matrix until one is rebound.
    """

    __slots__ = ("rows",)

    def __init__(self, n1: int):
        self.rows: list[frozenset[int]] = [frozenset()] * (n1 + 1)

    @classmethod
    def initial(cls, g1: LabeledGraph, g2: LabeledGraph) -> "CompatibleMatrix":
        """Entry (i, j) is 1 iff labels agree and degree(i) <= degree(j).

        The degree condition is sound because the paths leaving a branch
        node are pairwise independent, so at most degree(j) of them can
        start there.
        """
        if g1.n == 0 or g2.n == 0:
            raise ValueError("initial matrix requires nonempty graphs")
        m = cls(g1.n)
        by_label: dict[str, list[int]] = {}
        for j in g2.vertices:
            by_label.setdefault(g2.label(j), []).append(j)
        for i in g1.vertices:
            di = g1.degree(i)
            m.rows[i] = frozenset(j for j in by_label.get(g1.label(i), ())
                                  if di <= g2.degree(j))
        return m

    def get(self, i: int, j: int) -> bool:
        return j in self.rows[i]

    def ones(self) -> int:
        return sum(len(r) for r in self.rows[1:])

    def nonzero_columns(self) -> tuple:
        cols: set[int] = set()
        for r in self.rows[1:]:
            cols.update(r)
        return tuple(sorted(cols))

    def snapshot(self) -> list[frozenset[int]]:
        """Rows 1..n1 by reference; no row is copied."""
        return self.rows[1:]

    def restore(self, snap):
        self.rows[1:] = snap


def initial_compatible_matrix(g1: LabeledGraph, g2: LabeledGraph) -> CompatibleMatrix:
    return CompatibleMatrix.initial(g1, g2)


class MatchState:
    """One mutable search state: partial matches plus refined matrix and store.

    All mutation goes through ``push_node_match`` / ``push_path_match``
    and is undone exactly by ``pop()``; a fully popped state has the
    matrix, matches and store contents of the freshly created one.  The
    matches live in ``node_image`` and ``path_of_edge`` alone, whose
    insertion order is the push order, so a pop removes their newest
    entry.  The store's clock and stamps and the record of verified cells
    are not rolled back: they only grow, and no result depends on their
    values.
    """

    def __init__(self, g1: LabeledGraph, matrix: CompatibleMatrix, store,
                 config: SearchConfig | None = None):
        self.g1 = g1
        self.matrix = matrix
        self.store = store
        self.config = config or SearchConfig()
        self.node_image: dict[int, int] = {}
        self.path_of_edge: dict[tuple[int, int], int] = {}
        self._trail: list = []  # (kind, matrix snapshot, undo token) per push
        # pattern row -> (neighbour key, store clock, cells kept) of its last scan
        self._verified: dict[int, tuple] = {}

    @classmethod
    def create(cls, g1: LabeledGraph, g2: LabeledGraph, l: int, h: int,
               config: SearchConfig | None = None) -> "MatchState":
        config = config or SearchConfig()
        check_length_window(l, h)
        matrix = CompatibleMatrix.initial(g1, g2)
        cands = candidate_branch_nodes(matrix)
        store = enumerate_paths(g2, cands, l, h, deadline=config.deadline)
        return cls(g1, matrix, store, config)

    @property
    def depth(self) -> int:
        return len(self.node_image) + len(self.path_of_edge)

    # state transitions -------------------------------------------------

    def push_node_match(self, vi: int, vj: int):
        """Match vi to vj, which takes vj.

        Kills the paths running through vj and binds row vi to {vj}; then
        ``_take`` strips vj from the unmatched rows and refines.
        """
        self._trail.append(("node", self.matrix.snapshot(),
                            self.store.remove_paths_through_vertex(vj)))
        self.node_image[vi] = vj
        self.matrix.rows[vi] = frozenset((vj,))
        self._take((vj,), hints=(vi,))

    def push_path_match(self, edge: tuple[int, int], pid: int):
        """Commit path pid to edge, which takes the path's inner vertices.

        Kills the other paths running through them; then ``_take`` strips
        them from the unmatched rows and refines.
        """
        store = self.store
        self._trail.append(("edge", self.matrix.snapshot(),
                            store.remove_paths_conflicting_with(pid)))
        self.path_of_edge[edge] = pid
        self._take(store.inner(pid), hints=edge)

    def _take(self, taken, hints):
        """Strip the taken vertices from every unmatched row, then refine.

        A matched row holds only its own image, never a taken vertex, so
        only unmatched rows can change.  A refinement cut by the deadline
        undoes the push.
        """
        rows = self.matrix.rows
        img = self.node_image
        for i in range(1, self.g1.n + 1):
            if i not in img and not rows[i].isdisjoint(taken):
                rows[i] = rows[i].difference(taken)
        try:
            self.refine_compatibility(hints=hints)
        except SearchTimeout:
            self.pop()
            raise

    def pop(self):
        """Undo the most recent push exactly."""
        kind, snap, token = self._trail.pop()
        self.store.undo(token)
        self.matrix.restore(snap)
        if kind == "node":
            self.node_image.popitem()
        else:
            self.path_of_edge.popitem()

    # state predicates ---------------------------------------------------

    def is_success(self) -> bool:
        """Complete mapping state: all nodes and all edges matched."""
        return len(self.node_image) == self.g1.n and len(self.path_of_edge) == self.g1.m

    def is_dead(self) -> bool:
        """Provably unextendable state.

        Either some unmatched pattern row has no candidates left, or some
        pattern edge with both endpoints matched and no committed path has
        zero alive paths between the images.  Once every row is matched
        the first question is vacuous.
        """
        rows = self.matrix.rows
        img = self.node_image
        if any(not rows[i] for i in range(1, self.g1.n + 1) if i not in img):
            return True
        store = self.store
        for e in self.g1.edges:
            if e in self.path_of_edge:
                continue
            fa = img.get(e[0])
            fb = img.get(e[1])
            if fa is not None and fb is not None and store.pair_count(fa, fb) == 0:
                return True
        return False

    # candidate generation -----------------------------------------------

    def pending_edges(self) -> list[tuple[int, int]]:
        img = self.node_image
        out = []
        for e in self.g1.edges:
            a, b = e
            if a in img and b in img and e not in self.path_of_edge:
                out.append(e)
        out.sort()
        return out

    def select_row(self) -> int | None:
        unmatched = [i for i in range(1, self.g1.n + 1) if i not in self.node_image]
        if not unmatched:
            return None
        if self.config.order == "mcf":
            rows = self.matrix.rows
            return min(unmatched, key=lambda i: (len(rows[i]), i))
        return unmatched[0]

    def select_pending_edge(self) -> tuple[int, int] | None:
        pending = self.pending_edges()
        if not pending:
            return None
        if self.config.order == "mcf":
            img = self.node_image
            store = self.store
            return min(pending, key=lambda e: (store.pair_count(img[e[0]], img[e[1]]), e))
        return pending[0]

    def node_candidates(self, vi: int) -> list[int]:
        return sorted(self.matrix.rows[vi])

    def path_candidates(self, edge: tuple[int, int]) -> list[int]:
        """Alive paths joining the edge's images, in ascending id order.

        Every one of them may be committed: the kills of earlier matches
        leave no alive path with a taken vertex inside it, and its ends are
        matched images, never committed inner vertices.
        """
        img = self.node_image
        return self.store.alive_between(img[edge[0]], img[edge[1]])

    # matrix refinement ----------------------------------------------------

    def refine_compatibility(self, hints=()):
        """Clear node-candidate cells that cannot support their incident edges.

        A cell (i, j) survives only if every matched neighbour of i is
        still path-reachable from j, every unmatched neighbour has some
        current candidate of its own reachable from j by an alive path,
        and one witness path per such requirement can be picked pairwise
        independent.  Cells are cleared only when no completion of the
        current state can use them (any completion maps a neighbour into
        its current row).  The pick tries the matched neighbours' path
        lists first, shortest first, then the unmatched neighbours in
        ``g1.neighbors`` order, each list in ascending path id; every path
        tried costs one unit of ``witness_cap``, and a cell whose pick
        runs past the cap is conservatively kept.

        Rows adjacent to the ``hints`` vertices are scanned first and
        the scan stops once a row empties, because the state is then
        dead and about to be discarded anyway.

        A cell's verdict depends only on its neighbours' images or rows,
        the witness cap and the alive paths ending at its column.  Each
        scanned row therefore records its neighbour key (each matched
        neighbour's image, each unmatched neighbour's row object), the
        store clock and the row it kept; a later scan with an equal key
        re-checks only the cells it did not keep or whose column's stamp
        is newer.  Rows are compared by identity first, then by contents,
        and equal contents give equal verdicts.  The cells a scan clears
        are bound as one new row.  The configured deadline is polled once
        per row.
        """
        g1 = self.g1
        rows = self.matrix.rows
        img = self.node_image
        order = []
        seen = set()
        for hv in hints:
            for u in g1.neighbors(hv):
                if u not in img and u not in seen:
                    seen.add(u)
                    order.append(u)
        order.extend(i for i in range(1, g1.n + 1) if i not in img and i not in seen)
        store = self.store
        stamps = store.stamps
        verified = self._verified
        has_witnesses, cap = store.has_witnesses, self.config.witness_cap
        deadline = self.config.deadline
        for vi in order:
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout("matrix refinement exceeded its deadline")
            row = rows[vi]
            if not row:
                return
            matched_images = []
            neighbor_rows = []
            key = []
            for u in g1.neighbors(vi):
                fu = img.get(u)
                if fu is not None:
                    matched_images.append(fu)
                    key.append(fu)
                else:
                    neighbor_rows.append(rows[u])
                    key.append(rows[u])
            if not matched_images and not neighbor_rows:
                continue
            key = tuple(key)
            last = verified.get(vi)
            if last is not None and last[0] == key:
                _, clock, kept = last
            else:
                clock, kept = 0, ()
            # A check never reads the cell's own row, so the cells it
            # clears can be bound as one new row after the scan.
            cleared = [vj for vj in sorted(row) if (vj not in kept or stamps[vj] > clock)
                       and not has_witnesses(vj, matched_images, neighbor_rows, cap)]
            if cleared:
                rows[vi] = row = row.difference(cleared)
            verified[vi] = (key, store.clock, row)
            if not row:
                return


def new_edges_emergent(state: MatchState, g1: LabeledGraph) -> list[tuple[int, int]]:
    """Pattern edges the newest node match completes, in ascending order.

    These join the just-matched pattern vertex to previously matched
    ones; for a connected pattern the list is empty only at the very
    first node match.
    """
    img = state.node_image
    if not img:
        return []
    vi = next(reversed(img))
    out = []
    for u in g1.neighbors(vi):
        if u in img:
            out.append((vi, u) if vi < u else (u, vi))
    out.sort()
    return out


@dataclass(slots=True)
class _Frame:
    """A state that branches over the candidates of one pattern row or edge."""

    phase: str
    item: object
    cands: Iterator[int]
    edges: list | None = None  # ndshd2 edge frames: the emergent edges ...
    k: int = 0  # ... and the index of ``item`` in them
    pushed: bool = False  # a match for ``item`` is on the state


class _Engine:
    """Drives one search over a MatchState; collects stats, honors deadlines.

    Both strategies run in one loop over an explicit stack of frames, so
    the search depth is not bounded by Python's recursion limit.  They
    differ only in the state that follows a push: ``ndshd1`` stays at the
    node level until every row is matched, then takes pending edges by
    ``select_pending_edge``; ``ndshd2`` walks the ``new_edges_emergent``
    list in order, then goes back to the node level.
    """

    def __init__(self, state: MatchState, strategy: str, stats: SearchStats):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.state = state
        self.two_level = strategy == "ndshd1"
        self.stats = stats
        self._deadline = state.config.deadline

    def solutions(self):
        """Generator of complete mappings; closing it restores the state."""
        s = self.state
        root_snapshot = s.matrix.snapshot()
        stack: list[_Frame] = []
        try:
            # One refinement pass before the first selection settles most
            # unsatisfiable instances in a single scan instead of once per
            # root candidate; it is the same sound per-match refinement.
            s.refine_compatibility()
            found = self._open(stack, "node", None, 0)
            while True:
                if found is not None:
                    yield found
                if not stack:
                    return
                frame = stack[-1]
                if frame.pushed:  # the subtree below the match is exhausted
                    frame.pushed = False
                    self._backtracked()
                    s.pop()
                cand = next(frame.cands, None)
                if cand is None:
                    stack.pop()
                    found = None
                    continue
                if frame.phase == "node":
                    s.push_node_match(frame.item, cand)
                    self._record("node")
                    emergent = None if self.two_level else new_edges_emergent(s, s.g1)
                    child = ("edge", emergent, 0) if emergent else ("node", None, 0)
                else:
                    s.push_path_match(frame.item, cand)
                    self._record("edge")
                    child = ("edge", frame.edges, frame.k + 1)
                frame.pushed = True
                found = self._open(stack, *child)
        finally:
            while stack:
                if stack.pop().pushed:
                    s.pop()
            s.matrix.restore(root_snapshot)

    def _open(self, stack, phase, edges, k) -> Mapping | None:
        """Enter the root or the state after a push; stack its frame or return its mapping.

        A state with nothing to choose enters the next one in the same
        call: ``ndshd1``'s node level hands over to the edge level once
        every row is matched, ``ndshd2``'s edge level back to the node level.
        """
        s = self.state
        two_level = self.two_level
        while True:
            self._enter()
            if phase == "node" and not two_level and s.is_success():
                return self._solution()
            if s.is_dead():
                return None
            if phase == "node":
                vi = s.select_row()
                if vi is not None:
                    stack.append(_Frame("node", vi, iter(s.node_candidates(vi))))
                    return None
                if not two_level:
                    return None
                phase = "edge"
                continue
            if two_level:
                edge = s.select_pending_edge()
                if edge is None:
                    return self._solution()
            elif k < len(edges):
                edge = edges[k]
            else:
                phase = "node"
                continue
            stack.append(_Frame("edge", edge, iter(s.path_candidates(edge)), edges, k))
            return None

    def _enter(self):
        self.stats.states_explored += 1
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise SearchTimeout("search exceeded its deadline")

    def _record(self, phase: str):
        st = self.stats
        st.recursion_calls += 1
        depth = self.state.depth
        if depth > st.max_depth:
            st.max_depth = depth
        if st.trace is not None:
            st.trace.append((st.recursion_calls, depth, phase))

    def _backtracked(self):
        st = self.stats
        st.backtracks += 1
        st.backtrack_depth_sum += self.state.depth

    def _solution(self) -> Mapping:
        s = self.state
        node_map = dict(sorted(s.node_image.items()))
        edge_paths = {}
        for edge, pid in s.path_of_edge.items():
            verts = s.store.vertices(pid)
            if verts[0] != node_map[edge[0]]:
                verts = tuple(reversed(verts))
            edge_paths[edge] = verts
        return Mapping(node_map, dict(sorted(edge_paths.items())))


def _witnesses(g1, g2, l, h, strategy, config, stats):
    """Window check, empty graphs and timed set-up and search of one call."""
    stats = stats if stats is not None else SearchStats()
    check_length_window(l, h)
    if g1.n == 0:
        stats.outcome = True
        yield Mapping({}, {})
        return
    if g2.n == 0:
        stats.outcome = False
        return
    t0 = time.perf_counter()
    state = MatchState.create(g1, g2, l, h, config)
    stats.setup_time = time.perf_counter() - t0
    gen = _Engine(state, strategy, stats).solutions()
    emitted = 0
    t1 = time.perf_counter()
    try:
        for mapping in gen:
            emitted += 1
            yield mapping
    finally:
        gen.close()
        stats.wall_time = time.perf_counter() - t1
        stats.outcome = emitted > 0


def _first_solution(g1, g2, l, h, strategy, config, stats) -> Mapping | None:
    run = _witnesses(g1, g2, l, h, strategy, config, stats)
    try:
        return next(run, None)
    finally:
        run.close()


def ndshd1(g1: LabeledGraph, g2: LabeledGraph, l: int, h: int, *,
           config: SearchConfig | None = None,
           stats: SearchStats | None = None) -> Mapping | None:
    """First witness found by the two-level strategy, or None.

    The node mapping is completed before any edge-path is tried; an
    unsatisfiable edge-path level backtracks into the node level, so the
    answer is exact.
    """
    return _first_solution(g1, g2, l, h, "ndshd1", config, stats)


def ndshd2(g1: LabeledGraph, g2: LabeledGraph, l: int, h: int, *,
           config: SearchConfig | None = None,
           stats: SearchStats | None = None) -> Mapping | None:
    """First witness found by the interleaved strategy, or None.

    After each node match the edges it completes are path-matched
    immediately, which detects dead ends far earlier on dense data
    graphs.  The determination agrees with ``ndshd1`` on every input.
    """
    return _first_solution(g1, g2, l, h, "ndshd2", config, stats)


def enumerate_all(g1: LabeledGraph, g2: LabeledGraph, l: int, h: int, *,
                  limit: int | None = None, strategy: str = "ndshd2",
                  config: SearchConfig | None = None,
                  stats: SearchStats | None = None):
    """Yield every distinct complete witness, stopping early at ``limit``.

    Distinctness is by node map plus edge-to-path assignment; the
    search tree branches on disjoint choices, so no duplicates arise.
    """
    if limit is not None and limit <= 0:
        return
    run = _witnesses(g1, g2, l, h, strategy, config, stats)
    try:
        for emitted, mapping in enumerate(run, 1):
            yield mapping
            if emitted == limit:
                return
    finally:
        run.close()
