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

A pending edge is a pattern edge whose two ends are matched and which
has no committed path yet.  The state keeps the pending edges as one map
keyed by their ends' images, and both strategies take their next edge
from it: ``ndshd1`` once every node is matched, ``ndshd2`` right after
the node match that made the edges pending.

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
store's alive paths, and are tried in ascending order.  The node level
matches the unmatched row with the fewest candidates next (most
constrained first, ties by ascending id).

Backtracking restores state exactly.  Refinement re-checks only the
cells that something changed since they were last checked, and which
cells those are (the dirty map) is part of the state.  Matrix rows are
immutable, so a change binds a new row.  A push saves the dirty map and
the list of row references, and its pop puts both back; a finished
search puts back its root's, which also undoes the root refinement, so
nothing of a search outlives it.  The path store's alive flags, counters
and reachability sets are rolled back through undo tokens in reverse
order.  Beyond the n1 row references it saves, a push costs what it
changes, not the pattern's size.  A push returns whether it left the
state dead, judged from what the push changed: a row its strip or
refinement emptied, or a pending edge its kills left without an alive
path.  A search owns its state and is single-threaded; the input graphs
are never modified.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .graph import LabeledGraph, check_window
from .mapping import Mapping
from .pathindex import SearchTimeout, candidate_branch_nodes, check_deadline, enumerate_paths

__all__ = [
    "SearchTimeout",
    "WITNESS_CAP",
    "SearchStats",
    "CompatibleMatrix",
    "MatchState",
    "Mapping",
    "ndshd1",
    "ndshd2",
    "enumerate_all",
]

STRATEGIES = ("ndshd1", "ndshd2")

# Path attempts one witness pick may spend on a cell; past them refinement
# keeps the cell, so the cap never changes the solution set.
WITNESS_CAP = 10_000


def _check_limits(l, h, deadline):
    """Reject a bad window, and a deadline that is NaN or not a number."""
    check_window(l, h)
    check_deadline(deadline)


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
    with the live matrix until one is rebound.  A search state saves a
    snapshot with each push and restores it on the pop, and a search
    restores its root's at its end.
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

    def snapshot(self) -> list[frozenset[int]]:
        """Rows 1..n1 by reference; no row is copied."""
        return self.rows[1:]

    def restore(self, snap):
        self.rows[1:] = snap


class MatchState:
    """One mutable search state: partial matches plus refined matrix and store.

    All mutation goes through ``push_node_match`` / ``push_path_match``
    and is undone exactly by ``pop()``; a fully popped state has the
    matrix, matches, pending edges, dirty map and store contents of the
    freshly created one.  The matches live in ``node_image`` and
    ``path_of_edge`` alone, whose insertion order is the push order, so a
    pop removes their newest entry.

    ``pending`` maps the image pair ``(a, b)``, ``a < b``, of each pending
    edge to the edge; it is the key of the store's pair counts and of a
    path's ends.  A node match adds one entry per matched neighbour and a
    path match deletes its edge's entry.  A pop reverses its push from
    the popped match alone, so the map needs no trail entry.

    Each push saves the matrix rows, a list of n1 references, in its
    trail entry, and its pop restores them.  The rows of the matrix the
    state was created with are grouped by content; a taken vertex, or an
    end whose alive paths changed, is looked up only in the groups whose
    initial row holds it.

    Refinement scans only dirty rows: the map ``_dirty`` takes each
    unmatched row that needs a scan to its pending cells, the cells to
    re-check, or to ``None`` for every cell.  A neighbour's new row or
    image makes every cell pending, and a push adds the ends of the paths
    its kills removed, which its undo token carries, to the pending cells
    of the rows holding them.  A scan takes the row out of the map.  Each
    push saves the map in its trail entry and works on a copy, and its
    pop puts the saved map back, so the map always matches the rows and
    alive paths it describes.
    """

    def __init__(self, g1: LabeledGraph, matrix: CompatibleMatrix, store,
                 deadline: float | None = None):
        self.g1 = g1
        self.matrix = matrix
        self.store = store
        self.deadline = deadline  # a time.monotonic() value, or None
        self.node_image: dict[int, int] = {}
        self.path_of_edge: dict[tuple[int, int], int] = {}
        # image pair (a, b), a < b -> the pending pattern edge between its preimages
        self.pending: dict[tuple[int, int], tuple[int, int]] = {}
        self._trail: list = []  # (kind, undo token, dirty map, rows) per push
        # unmatched row -> the cells its next scan re-checks (None: every cell)
        self._dirty: dict[int, frozenset[int] | None] = dict.fromkeys(g1.vertices)
        # The rows of the matrix the state starts from, grouped by content
        # (rows of one label and degree are equal): rows only shrink, so a
        # data vertex can be only in the rows of groups whose row holds it.
        groups: dict[frozenset[int], list[int]] = {}
        for i in g1.vertices:
            groups.setdefault(matrix.rows[i], []).append(i)
        self._groups = list(groups.items())

    @classmethod
    def create(cls, g1: LabeledGraph, g2: LabeledGraph, l: int, h: int,
               deadline: float | None = None) -> "MatchState":
        _check_limits(l, h, deadline)
        matrix = CompatibleMatrix.initial(g1, g2)
        cands = candidate_branch_nodes(matrix)
        store = enumerate_paths(g2, cands, l, h, deadline=deadline)
        return cls(g1, matrix, store, deadline)

    @property
    def depth(self) -> int:
        return len(self.node_image) + len(self.path_of_edge)

    # state transitions -------------------------------------------------

    def push_node_match(self, vi: int, vj: int) -> bool:
        """Match vi to vj, which takes vj; return whether the state is dead.

        Kills the paths running through vj and binds row vi to {vj}; then
        ``_take`` strips vj from the unmatched rows and refines.
        """
        token = self.store.remove_paths_through_vertex(vj)
        self._save("node", token)
        img, pending = self.node_image, self.pending
        for u in self.g1._adj[vi]:
            fu = img.get(u)
            if fu is not None:
                pending[(vj, fu) if vj < fu else (fu, vj)] = (vi, u) if vi < u else (u, vi)
        img[vi] = vj
        self._dirty.pop(vi, None)
        self._rebind(vi, frozenset((vj,)))
        return self._take((vj,), (vi,), token)

    def push_path_match(self, edge: tuple[int, int], pid: int) -> bool:
        """Commit path pid to edge, which takes the path's inner vertices;
        return whether the state is dead.

        Kills the other paths running through them; then ``_take`` strips
        them from the unmatched rows and refines.
        """
        store = self.store
        token = store.remove_paths_conflicting_with(pid)
        self._save("edge", token)
        verts = store.vertices(pid)
        del self.pending[verts[0], verts[-1]]
        self.path_of_edge[edge] = pid
        return self._take(store.inner(pid), edge, token)

    def _save(self, kind: str, token):
        """Open a trail entry for a push: the dirty map, edited as a copy, and the rows."""
        self._trail.append((kind, token, self._dirty, self.matrix.snapshot()))
        self._dirty = self._dirty.copy()

    def _rebind(self, i: int, row: frozenset[int]):
        """Bind row i; its unmatched neighbours' cells turn pending."""
        self.matrix.rows[i] = row
        img, dirty = self.node_image, self._dirty
        for u in self.g1._adj[i]:
            if u not in img:
                dirty[u] = None

    def _take(self, taken, hints, token) -> bool:
        """Strip the taken vertices from the unmatched rows, then refine;
        return whether the push left the state dead.

        Only the rows of a group whose initial row holds a taken vertex
        can hold it, and a matched row holds only its own image, never a
        taken vertex.  A strip that empties a row, or kills that left a
        pending edge's image pair without an alive path, end the push
        without a refinement: the state is dead, and its pop puts back the
        dirty map.  Otherwise the ends of the paths the push killed become
        pending cells of the rows holding them, and refinement runs.  A
        refinement cut by the deadline undoes the push.

        The state the push started from was live: no unmatched row was
        empty and every pending edge had an alive path.  So only what the
        push changed can kill it: an empty row, or a pending edge whose
        image pair its kills left without an alive path.  Refinement
        changes neither the pending edges nor the paths, so the second
        test runs before it.  An edge the push made pending needs no check:
        refinement kept the pushed cell only if each matched neighbour's
        image was reachable from it, and a node match kills no path ending
        at its own image.
        """
        rows = self.matrix.rows
        img = self.node_image
        emptied = False
        for initial, ids in self._groups:
            if initial.isdisjoint(taken):
                continue
            for i in ids:
                if i not in img and not rows[i].isdisjoint(taken):
                    row = rows[i].difference(taken)
                    self._rebind(i, row)
                    emptied = emptied or not row
        if emptied or any(pair in self.pending for pair in token.zeroed):
            return True
        ends, dirty = token.ends, self._dirty
        if ends:
            for initial, ids in self._groups:
                if not initial.isdisjoint(ends):
                    for i in ids:
                        cells = dirty.get(i, frozenset())
                        if (cells is not None and i not in img
                                and not rows[i].isdisjoint(ends)):
                            dirty[i] = cells.union(rows[i].intersection(ends))
        try:
            return self.refine_compatibility(hints=hints)
        except SearchTimeout:
            self.pop()
            raise

    def pop(self):
        """Undo the most recent push exactly, the dirty map and pending edges included."""
        kind, token, self._dirty, rows = self._trail.pop()
        store, img, pending = self.store, self.node_image, self.pending
        store.undo(token)
        if kind == "node":
            vi, vj = img.popitem()
            for u in self.g1._adj[vi]:
                fu = img.get(u)
                if fu is not None:
                    del pending[(vj, fu) if vj < fu else (fu, vj)]
        else:
            edge, pid = self.path_of_edge.popitem()
            verts = store.vertices(pid)
            pending[verts[0], verts[-1]] = edge
        self.matrix.restore(rows)

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

    def select_row(self) -> int | None:
        """The unmatched row with the fewest candidates, ties by ascending id, or None."""
        img = self.node_image
        if len(img) == self.g1.n:
            return None
        unmatched = [i for i in range(1, self.g1.n + 1) if i not in img]
        sizes = map(len, map(self.matrix.rows.__getitem__, unmatched))
        return min(zip(sizes, unmatched))[1]

    def select_pending_edge(self) -> tuple[int, int] | None:
        """The pending edge to match next, or None when no edge is pending.

        The edge with the fewest alive paths between its images, ties by
        ascending edge.
        """
        pending = self.pending
        if not pending:
            return None
        count = self.store.pair_count
        return min((count(a, b), e) for (a, b), e in pending.items())[1]

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

    def refine_compatibility(self, hints=()) -> bool:
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
        tried costs one unit of ``WITNESS_CAP``, read once per pass, and
        a cell whose pick runs past the cap is conservatively kept.

        Rows are visited in one order: the unmatched neighbours of the
        ``hints`` vertices first, then the other unmatched rows in
        ascending id.  The pass stops once a row is empty, because the
        state is then dead and about to be discarded anyway; it returns
        True exactly when it stops so.

        A cell's verdict depends only on its neighbours' images or rows,
        the witness cap and the alive paths ending at its column, so only
        the dirty rows are scanned, each re-checking only its pending
        cells (see ``MatchState``).  A row whose cells this pass clears
        makes its neighbours dirty, and they are scanned later in the pass
        if they come after it.  Reach sets are symmetric, so the cells
        outside the reach set of some matched neighbour's image are
        cleared without a pick.  The cells a scan clears are bound as one
        new row.  The state's deadline is polled once per row scanned.
        """
        adj = self.g1._adj
        rows = self.matrix.rows
        img = self.node_image
        store = self.store
        dirty = self._dirty
        if not dirty:
            return False
        head = []  # the hint rows, whose visit positions are -len(head)..-1
        for hv in hints:
            for u in adj[hv]:
                if u not in img and u not in head:
                    head.append(u)
        first = {u: k - len(head) for k, u in enumerate(head)}
        heap = [first.get(i, i) for i in dirty]
        heapify(heap)
        reach = store.reachable_from
        has_witnesses, cap = store.has_witnesses, WITNESS_CAP
        deadline = self.deadline
        while heap:
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout("matrix refinement exceeded its deadline")
            pos = heappop(heap)
            vi = head[pos] if pos < 0 else pos
            row = rows[vi]
            if not row:
                return True
            pending = dirty.pop(vi)
            if not adj[vi]:
                continue
            matched_images = []
            neighbor_rows = []
            for u in adj[vi]:
                fu = img.get(u)
                if fu is not None:
                    matched_images.append(fu)
                else:
                    neighbor_rows.append(rows[u])
            # A check never reads the cell's own row, so the cells it
            # clears can be bound as one new row after the scan.  With no
            # matched neighbour there is no reach test: every cell passes.
            recheck = row if pending is None else row.intersection(pending)
            passing = (recheck.intersection(*[reach(fu) for fu in matched_images])
                       if matched_images else row)
            cleared = [vj for vj in recheck if vj not in passing
                       or not has_witnesses(vj, matched_images, neighbor_rows, cap)]
            if cleared:
                for u in adj[vi]:
                    if u not in img and u not in dirty:
                        later = first.get(u, u)
                        if later > pos:
                            heappush(heap, later)
                row = row.difference(cleared)
                self._rebind(vi, row)
                if not row:
                    return True
        return False


class _Engine:
    """Drives one search over a MatchState; collects stats, honors deadlines.

    Both strategies run in one loop over an explicit stack of frames
    ``(level, item, cands)``, so the search depth is not bounded by
    Python's recursion limit.  They differ in one rule: a strategy stays
    on its first level, ``ndshd1`` the rows and ``ndshd2`` the pending
    edges, while that level has work left, and takes the other level
    only when it has none.  ``ndshd1`` takes pending edges by
    ``select_pending_edge``, ``ndshd2`` the least of ``pending``.  The
    caller checks the strategy name: any name but ``ndshd1`` runs
    ``ndshd2``.
    """

    def __init__(self, state: MatchState, strategy: str, stats: SearchStats):
        self.state = state
        self.first = "node" if strategy == "ndshd1" else "edge"
        self.stats = stats
        self._deadline = state.deadline

    def solutions(self, limit: int | None = None):
        """Generator of complete mappings, stopping after ``limit`` of them.

        ``limit`` is None or an int of at least 1.  The time the generator
        runs goes to ``stats.wall_time``, the unwind at its end included
        but not the consumer's time between two witnesses.  Its outcome
        goes to ``stats.outcome``: True once a witness was yielded, False
        when the search ran to its end without one, and None when it did
        neither, as when the deadline cuts it.  Closing the generator
        restores the state.
        """
        s = self.state
        # The root saves its rows and dirty map as a push does; root
        # refinement edits the map in place, so the root keeps a copy.
        dirty, rows = s._dirty.copy(), s.matrix.snapshot()
        stack: list[tuple] = []
        emitted = 0
        outcome = None
        t0 = time.perf_counter()
        try:
            # One refinement pass before the first selection settles most
            # unsatisfiable instances in a single scan instead of once per
            # root candidate; it is the same sound per-match refinement.
            found = self._open(stack, "node", s.refine_compatibility())
            while True:
                if found is not None:
                    outcome = True
                    paused = time.perf_counter()
                    try:
                        yield found
                    finally:  # the consumer's time is not the search's
                        t0 += time.perf_counter() - paused
                    emitted += 1
                    if emitted == limit:
                        return
                if not stack:
                    outcome = bool(outcome)
                    return
                level, item, cands = stack[-1]
                if s.depth == len(stack):  # the subtree below the top match is exhausted
                    self._backtracked()
                    s.pop()
                cand = next(cands, None)
                if cand is None:
                    stack.pop()
                    found = None
                    continue
                if level == "node":
                    dead = s.push_node_match(item, cand)
                else:
                    dead = s.push_path_match(item, cand)
                self._record(level)
                found = self._open(stack, level, dead)
        finally:
            while s.depth:
                s.pop()
            s.matrix.restore(rows)
            s._dirty = dirty
            self.stats.wall_time = time.perf_counter() - t0
            self.stats.outcome = outcome

    def _open(self, stack, came_from: str, dead: bool) -> Mapping | None:
        """Enter the root or the state after a push; stack its frame or return its mapping.

        ``dead`` says whether the state is dead: after a push, what the
        push returned; at the root, what the root refinement returned,
        which is exact there because every row starts dirty, so the pass
        stops at any empty row, and no edge is pending.  A live state
        stacks a frame on the strategy's first level while that level has
        work (an unmatched row for ``ndshd1``, a pending edge for
        ``ndshd2``), else on the other level, else it is a witness.
        ``came_from`` is the level of the push that led here, ``"node"``
        at the root.  When it is the first level and the next step is not,
        the state is entered once more: it counts in ``states_explored``
        and polls the deadline as the start of a new phase.
        """
        s = self.state
        self._enter()
        if dead:
            return None
        pending = s.pending
        vi = None if pending and self.first == "edge" else s.select_row()
        level = "node" if vi is not None else "edge" if pending else None
        if came_from == self.first and level != self.first:
            self._enter()
        if level == "node":
            stack.append(("node", vi, iter(s.node_candidates(vi))))
        elif level == "edge":
            edge = s.select_pending_edge() if self.first == "node" else min(pending.values())
            stack.append(("edge", edge, iter(s.path_candidates(edge))))
        else:
            return self._solution()
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


def _witnesses(g1, g2, l, h, strategy, deadline, stats, limit=None):
    """Check the arguments, time the set-up, then yield the search's witnesses.

    The checks run before anything else: ``limit``, which must be None or
    an int, then the strategy, then the window and the deadline.  A
    ``limit`` below 1 then yields nothing without a set-up.
    """
    if limit is not None and type(limit) is not int:
        raise ValueError(f"limit must be an int or None, not {limit!r}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    _check_limits(l, h, deadline)
    if limit is not None and limit <= 0:
        return
    stats = stats if stats is not None else SearchStats()
    t0 = time.perf_counter()
    state = MatchState.create(g1, g2, l, h, deadline)
    stats.setup_time = time.perf_counter() - t0
    yield from _Engine(state, strategy, stats).solutions(limit)


def _first_solution(g1, g2, l, h, strategy, deadline, stats) -> Mapping | None:
    run = _witnesses(g1, g2, l, h, strategy, deadline, stats)
    try:
        return next(run, None)
    finally:
        run.close()


def ndshd1(g1: LabeledGraph, g2: LabeledGraph, l: int, h: int, *,
           deadline: float | None = None,
           stats: SearchStats | None = None) -> Mapping | None:
    """First witness found by the two-level strategy, or None.

    The node mapping is completed before any edge-path is tried; an
    unsatisfiable edge-path level backtracks into the node level, so the
    answer is exact.  ``deadline`` is a ``time.monotonic()`` value past
    which set-up or search raises ``SearchTimeout``.
    """
    return _first_solution(g1, g2, l, h, "ndshd1", deadline, stats)


def ndshd2(g1: LabeledGraph, g2: LabeledGraph, l: int, h: int, *,
           deadline: float | None = None,
           stats: SearchStats | None = None) -> Mapping | None:
    """First witness found by the interleaved strategy, or None.

    After each node match the edges it completes are path-matched
    immediately, which detects dead ends far earlier on dense data
    graphs.  The determination agrees with ``ndshd1`` on every input.
    ``deadline`` is as for ``ndshd1``.
    """
    return _first_solution(g1, g2, l, h, "ndshd2", deadline, stats)


def enumerate_all(g1: LabeledGraph, g2: LabeledGraph, l: int, h: int, *,
                  limit: int | None = None, strategy: str = "ndshd2",
                  deadline: float | None = None,
                  stats: SearchStats | None = None):
    """Yield every distinct complete witness, stopping early at ``limit``.

    Distinctness is by node map plus edge-to-path assignment; the
    search tree branches on disjoint choices, so no duplicates arise.
    The first ``limit`` witnesses are those of the unlimited run, in its
    order.  An unknown strategy, an invalid window or deadline, or a
    ``limit`` that is neither None nor an int raises ``ValueError`` at
    the first ``next``, whatever the graphs.
    """
    yield from _witnesses(g1, g2, l, h, strategy, deadline, stats, limit)
