"""Bounded simple-path index over candidate branch nodes.

Holds every simple path of the data graph whose length lies in [l, h]
and whose two ends are both candidate branch nodes; inner vertices are
unrestricted.  Each undirected path is stored once, oriented from its
smaller end, under a per-endpoint-pair list.  The enumeration only
records path tuples and pair lists; one bulk pass after it fills the
alive flags, the per-pair alive counters (the independent-path count
matrix consulted by the search), the reachability sets and the
per-end and per-inner-vertex lists.  Removal batches flip alive flags
and return tokens; undoing tokens in reverse order restores the alive
flags, counters and reachability sets exactly, which is what
backtracking relies on.  A token also tells its caller what the batch
changed without a scan: the ends whose alive paths changed, and the end
pairs it left without an alive path.

A store belongs to exactly one search and is never mutated
concurrently.  The number of bounded paths grows exponentially with
``h``, so the build stores at most ``MAX_PATHS`` paths and raises
``IndexTooLarge`` past that; ``h`` itself is not capped.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass

from .graph import check_window

__all__ = [
    "SearchTimeout",
    "IndexTooLarge",
    "MAX_PATHS",
    "UndoToken",
    "PathStore",
    "candidate_branch_nodes",
    "enumerate_paths",
]

# Stored paths a build may hold.  Set-up peaks at 214-324 bytes per stored
# path for h = 3 to 8, so the largest index allowed takes about 1 GiB.
MAX_PATHS = 3_000_000
# DFS descents between two polls of the deadline and the path budget.
_POLL_EVERY = 1024


class SearchTimeout(Exception):
    """Raised when a configured deadline expires mid-search."""


class IndexTooLarge(ValueError):
    """Raised when a path-index build would store more than ``MAX_PATHS`` paths."""


@dataclass(frozen=True)
class UndoToken:
    """Record of one removal batch; undo revives exactly the ``killed`` paths.

    ``ends`` holds every end of a killed path, and ``zeroed`` the end
    pairs whose alive count the batch took to zero.
    """

    killed: tuple
    ends: set
    zeroed: list


def candidate_branch_nodes(matrix) -> tuple:
    """Data vertices whose column in the initial matrix has at least one 1.

    Only these vertices can be images of pattern vertices, so only paths
    ending at them need to be enumerated; returned in ascending order.
    """
    cols: set[int] = set()
    for r in matrix.rows[1:]:
        cols.update(r)
    return tuple(sorted(cols))


class PathStore:
    """Path table plus endpoint-pair index with soft removal and undo.

    Besides the pair counters, the store tracks per endpoint the set of
    opposite endpoints still joined to it by an alive path, which gives
    the refinement an O(1) reachability test.

    A removal batch kills exactly the alive paths running through the
    vertices it takes, that is, having one of them strictly inside.
    Paths that merely end at a taken vertex stay alive: those ending at a
    matched image are the candidates for its edges, and the search never
    reads those ending at a committed inner vertex, which is never an
    image, a row entry or a refined cell.  What a batch changed goes
    back to its caller in its ``UndoToken``; the store keeps no record
    of it.

    ``witness_tries`` counts the paths ``has_witnesses`` has tried over
    the store's life.
    """

    __slots__ = ("candidates", "_cand_set", "_verts", "_alive",
                 "by_pair", "_by_inner", "_by_end", "_pair_alive",
                 "_reach", "witness_tries")

    def __init__(self, candidates, verts: list[tuple[int, ...]],
                 by_pair: dict[tuple[int, int], list[int]]):
        """Index the enumerated paths in one pass; every path starts alive.

        ``verts`` holds each path oriented from its smaller end, and
        ``by_pair`` maps each end pair to its path ids, ascending.  Ids are
        visited in ascending order, so every per-vertex list is ascending.
        """
        self.candidates = tuple(sorted(candidates))
        self._cand_set = frozenset(self.candidates)
        self._verts = verts
        self.by_pair = by_pair
        self._alive = bytearray(b"\x01") * len(verts)
        self._pair_alive = {key: len(pids) for key, pids in by_pair.items()}
        self._reach: dict[int, set[int]] = {v: set() for v in self.candidates}
        for u, w in by_pair:
            self._reach[u].add(w)
            self._reach[w].add(u)
        by_end: defaultdict[int, list[int]] = defaultdict(list)
        by_inner: defaultdict[int, list[int]] = defaultdict(list)
        for pid, path in enumerate(verts):
            by_end[path[0]].append(pid)
            by_end[path[-1]].append(pid)
            for x in path[1:-1]:
                by_inner[x].append(pid)
        self._by_end = dict(by_end)
        self._by_inner = dict(by_inner)
        self.witness_tries = 0

    def __len__(self) -> int:
        return len(self._verts)

    def vertices(self, pid: int) -> tuple[int, ...]:
        return self._verts[pid]

    def inner(self, pid: int) -> tuple[int, ...]:
        return self._verts[pid][1:-1]

    def is_alive(self, pid: int) -> bool:
        return bool(self._alive[pid])

    def pair_count(self, u: int, w: int) -> int:
        key = (u, w) if u < w else (w, u)
        return self._pair_alive.get(key, 0)

    def path_count(self, u: int, w: int) -> int:
        """Alive paths between two candidate branch nodes (count matrix entry)."""
        for v in (u, w):
            if v not in self._cand_set:
                raise ValueError(f"vertex {v} is not a candidate branch node")
        return self.pair_count(u, w)

    def alive_between(self, u: int, w: int) -> list[int]:
        key = (u, w) if u < w else (w, u)
        alive = self._alive
        return [pid for pid in self.by_pair.get(key, ()) if alive[pid]]

    def paths_ending_at(self, v: int) -> list[int]:
        """Ids of all stored paths with v as an end (alive or not), ascending."""
        return self._by_end.get(v, [])

    def reachable_from(self, v: int) -> set[int]:
        """Vertices joined to v by at least one alive path; do not mutate."""
        return self._reach[v]

    def _kill_all(self, pid_lists, keep: int = -1) -> UndoToken:
        """Deactivate, as one batch, every alive path in the lists but ``keep``."""
        alive, verts, pair_alive = self._alive, self._verts, self._pair_alive
        reach = self._reach
        ends: set[int] = set()
        zeroed: list[tuple[int, int]] = []
        killed: list[int] = []
        for pids in pid_lists:
            for pid in pids:
                if alive[pid] and pid != keep:
                    alive[pid] = 0
                    v = verts[pid]
                    u, w = key = v[0], v[-1]
                    count = pair_alive[key] - 1
                    pair_alive[key] = count
                    if count == 0:
                        reach[u].discard(w)
                        reach[w].discard(u)
                        zeroed.append(key)
                    ends.add(u)
                    ends.add(w)
                    killed.append(pid)
        return UndoToken(tuple(killed), ends, zeroed)

    def remove_paths_through_vertex(self, v: int) -> UndoToken:
        """Deactivate every alive path having v strictly inside; ends untouched."""
        return self._kill_all((self._by_inner.get(v, ()),))

    def remove_paths_conflicting_with(self, pid: int) -> UndoToken:
        """Deactivate every other alive path running through an inner vertex of this one.

        Running through means having the vertex strictly inside.  Paths
        that merely end at such a vertex stay alive, as does the committed
        path itself.
        """
        if not 0 <= pid < len(self._verts):
            raise ValueError(f"no path with id {pid}")
        if not self._alive[pid]:
            raise ValueError(f"path {pid} is not alive")
        return self._kill_all([self._by_inner[x] for x in self._verts[pid][1:-1]], keep=pid)

    def undo(self, token: UndoToken):
        """Revive the token's paths."""
        alive, verts, pair_alive = self._alive, self._verts, self._pair_alive
        reach = self._reach
        for pid in reversed(token.killed):
            alive[pid] = 1
            v = verts[pid]
            u, w = key = v[0], v[-1]
            count = pair_alive[key] + 1
            pair_alive[key] = count
            if count == 1:
                reach[u].add(w)
                reach[w].add(u)

    def has_witnesses(self, v: int, images, rows, cap: int) -> bool:
        """Whether one alive path per requirement at ``v`` can be picked independent.

        Each vertex of ``images`` requires a path from ``v`` to it, each set
        of ``rows`` a path from ``v`` to some vertex of the set.  Paths are
        independent when neither contains an inner vertex of the other;
        ends may coincide.  A depth-first pick takes the ``images``
        requirements first, fewest alive paths first (a stable sort), then
        the ``rows`` ones in the given order; within a requirement it tries
        paths in ascending id order.  Each path tried costs one unit of
        ``cap`` before its independence test; past the cap the answer is
        True, the conservative verdict.  The path lists of the ``rows``
        requirements are filled only as far as the pick reads them.  The
        units spent are added to ``witness_tries``.
        """
        reach = self._reach[v]
        if not reach.issuperset(images):
            return False
        for row in rows:
            if row.isdisjoint(reach):
                return False
        need = len(images) + len(rows)
        if need <= 1:
            return True
        alive, verts, by_pair = self._alive, self._verts, self.by_pair
        reqs = [[pid for pid in by_pair[(v, w) if v < w else (w, v)] if alive[pid]]
                for w in images]
        reqs.sort(key=len)
        first_row = len(reqs)
        reqs.extend([] for _ in rows)
        ends = self._by_end[v]
        scanned = [0] * len(rows)  # per rows requirement: ends read so far
        pos = [0] * need  # per requirement: index of the next path to try
        chosen = []  # (vertex set, inner vertices) of the path picked per level
        budget = cap
        k = 0
        while True:
            paths = reqs[k]
            i = pos[k]
            if i == len(paths) and k >= first_row:
                r = k - first_row
                row, j = rows[r], scanned[r]
                while j < len(ends):
                    pid = ends[j]
                    j += 1
                    if alive[pid]:
                        pv = verts[pid]
                        if (pv[-1] if pv[0] == v else pv[0]) in row:
                            paths.append(pid)
                            break
                scanned[r] = j
            if i == len(paths):
                if not k:
                    found = False
                    break
                k -= 1
                chosen.pop()
                continue
            pos[k] = i + 1
            budget -= 1
            if budget < 0:
                found = True
                break
            pv = verts[paths[i]]
            a, b, mid = pv[0], pv[-1], pv[1:-1]
            for qset, qmid in chosen:
                if a in qmid or b in qmid or not qset.isdisjoint(mid):
                    break
            else:
                k += 1
                if k == need:
                    found = True
                    break
                chosen.append((set(pv), mid))
                pos[k] = 0
        self.witness_tries += cap - budget
        return found

    def snapshot(self):
        """Fingerprint of the state that undo restores, for exact-restore checks."""
        sets = {v: frozenset(s) for v, s in self._reach.items()}
        return bytes(self._alive), dict(self._pair_alive), sets

    def dump(self) -> str:
        """Debug text: one 'p <id> <v1> ... <vk>' line per alive path, ascending id."""
        lines = []
        for pid, verts in enumerate(self._verts):
            if self._alive[pid]:
                lines.append(f"p {pid} " + " ".join(str(v) for v in verts))
        return "\n".join(lines) + ("\n" if lines else "")


def check_deadline(deadline):
    """Reject a deadline that is NaN or not a number; None means no deadline."""
    if deadline is not None and (type(deadline) not in (int, float) or math.isnan(deadline)):
        raise ValueError(f"deadline must be a number other than NaN, or None, not {deadline!r}")


def _poll(deadline: float | None, stored: int):
    """Raise once the build is past its deadline or over the path budget."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout("path-index build exceeded its deadline")
    if stored > MAX_PATHS:
        raise IndexTooLarge(
            f"the path index exceeds its budget of {MAX_PATHS:,} stored paths; "
            "narrow the window [l, h]")


def enumerate_paths(g2, candidates, l: int, h: int,
                    deadline: float | None = None) -> PathStore:
    """All simple paths of length l..h between candidate pairs, each stored once.

    Bounded DFS from every candidate vertex; a path is emitted when the
    far end is a candidate with a larger id, which canonicalizes the
    orientation.  Inner vertices may be non-candidates.  The DFS only
    appends path tuples and pair lists; the ``PathStore`` constructor
    builds the rest in one pass afterwards.  Every 1,024 DFS descents and
    after each source vertex, the build polls ``deadline``, a
    ``time.monotonic`` value, and the path budget: past the deadline it
    raises ``SearchTimeout``, and with more than ``MAX_PATHS`` paths
    stored ``IndexTooLarge``.  The poll after the last source counts
    every path, so no store over the budget is built.

    A candidate that is not an int, is a bool, is not a data vertex or
    repeats raises ``ValueError``, as do a bad window and a deadline that
    is NaN or not a number.
    """
    check_window(l, h)
    check_deadline(deadline)
    cand: set[int] = set()
    for v in candidates:
        if type(v) is not int or not 1 <= v <= g2.n:
            raise ValueError(f"candidate {v!r} is not a vertex of the data graph")
        if v in cand:
            raise ValueError(f"candidate {v} is repeated")
        cand.add(v)
    sources = tuple(sorted(cand))
    verts: list[tuple[int, ...]] = []
    by_pair: dict[tuple[int, int], list[int]] = {}
    adj = g2._adj  # hot loop; skips the per-call bounds check of neighbors()
    descents = _POLL_EVERY  # until the next poll
    # An explicit stack of neighbor iterators, one per path vertex whose
    # neighbors are still being walked.  A recursive nested function would
    # sit in a reference cycle with its own closure, which keeps the path
    # table alive after the store is dropped, until some later cyclic
    # garbage collection frees it.
    for s in sources:
        path = [s]
        on_path = {s}
        stack = [iter(adj[s])]
        while stack:
            for w in stack[-1]:
                if w in on_path:
                    continue
                path.append(w)
                nd = len(path) - 1
                if nd >= l and w > s and w in cand:
                    key = (s, w)
                    pids = by_pair.get(key)
                    if pids is None:
                        by_pair[key] = [len(verts)]
                    else:
                        pids.append(len(verts))
                    verts.append(tuple(path))
                if nd < h:
                    on_path.add(w)
                    stack.append(iter(adj[w]))
                    descents -= 1
                    if not descents:
                        _poll(deadline, len(verts))
                        descents = _POLL_EVERY
                    break
                path.pop()
            else:
                stack.pop()
                on_path.remove(path.pop())
        _poll(deadline, len(verts))
    return PathStore(sources, verts, by_pair)
