"""Reference decider and witness checks built from the problem definition alone.

Shares no code with ``homeomatch.search``: no candidate matrix, no path
index, no refinement.  Node maps follow labels and injectivity and are
pruned by BFS distance (adjacent pattern vertices need images at most h
apart); per-edge paths come from ``oracle.bounded_simple_paths`` and are
chosen by backtracking over pairwise independence.  Paths may not pass
through a branch node, since the mapped paths together with the branch
nodes form a subdivision of the pattern.
"""

from __future__ import annotations

from collections import deque

from homeomatch.mapping import Mapping
from homeomatch.oracle import bounded_simple_paths, verify_mapping


class CheckFailed(Exception):
    """The program's output contradicts an independent computation or a property."""


def witness_problem(g1, g2, l: int, h: int, mapping: Mapping) -> str | None:
    """Why a witness is invalid, or None.

    On top of ``verify_mapping``, the node map's keys must be exactly the
    pattern vertices and the edge map's keys exactly the pattern edges.
    """
    if set(mapping.node_map) != set(g1.vertices):
        extra = sorted(set(mapping.node_map) - set(g1.vertices))
        return f"node_map keys are not the pattern vertices (extra {extra})"
    if set(mapping.edge_path_map) != set(g1.edges):
        extra = sorted(set(mapping.edge_path_map) - set(g1.edges))
        return f"edge_path_map keys are not the pattern edges (extra {extra})"
    result = verify_mapping(g1, g2, l, h, mapping)
    return None if result else result.reason


def _ball(g2, v: int, h: int) -> frozenset:
    dist = {v: 0}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        if dist[x] == h:
            continue
        for y in g2.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return frozenset(dist)


def _independent(p, q) -> bool:
    qs, ps = set(q), set(p)
    return not any(x in qs for x in p[1:-1]) and not any(x in ps for x in q[1:-1])


def reference_decide(g1, g2, l: int, h: int) -> Mapping | None:
    """A witness that ``verify_mapping`` accepts, or None if there is none."""
    if g1.n == 0:
        return Mapping({}, {})
    cands = {v: [w for w in g2.vertices if g2.label(w) == g1.label(v)] for v in g1.vertices}
    # Visit pattern vertices so that each one after the first of its
    # component has an already-mapped neighbour to prune against.
    order: list[int] = []
    placed: set[int] = set()
    for root in sorted(g1.vertices, key=lambda v: (len(cands[v]), v)):
        if root in placed:
            continue
        placed.add(root)
        frontier = [root]
        while frontier:
            v = min(frontier, key=lambda x: (len(cands[x]), x))
            frontier.remove(v)
            order.append(v)
            for u in g1.neighbors(v):
                if u not in placed:
                    placed.add(u)
                    frontier.append(u)
    edges = g1.sorted_edges()
    balls: dict[int, frozenset] = {}
    paths: dict[tuple[int, int], list] = {}

    def ball(v):
        if v not in balls:
            balls[v] = _ball(g2, v, h)
        return balls[v]

    def edge_paths(u, w):
        if (u, w) not in paths:
            paths[(u, w)] = bounded_simple_paths(g2, u, w, l, h)
        return paths[(u, w)]

    def assign_paths(f):
        branch = set(f.values())
        options = []
        for a, b in edges:
            ps = [p for p in edge_paths(f[a], f[b]) if not branch.intersection(p[1:-1])]
            if not ps:
                return None
            options.append(((a, b), ps))
        options.sort(key=lambda item: len(item[1]))
        chosen: list = []

        def pick(k):
            if k == len(options):
                return True
            for p in options[k][1]:
                if all(_independent(p, q) for q in chosen):
                    chosen.append(p)
                    if pick(k + 1):
                        return True
                    chosen.pop()
            return False

        if not pick(0):
            return None
        return {e: p for (e, _), p in zip(options, chosen)}

    def extend(i, f, used):
        if i == len(order):
            assigned = assign_paths(f)
            if assigned is None:
                return None
            return Mapping(dict(sorted(f.items())), dict(sorted(assigned.items())))
        v = order[i]
        mapped_nbrs = [f[u] for u in g1.neighbors(v) if u in f]
        for w in cands[v]:
            if w in used or not all(w in ball(x) for x in mapped_nbrs):
                continue
            f[v] = w
            used.add(w)
            found = extend(i + 1, f, used)
            del f[v]
            used.discard(w)
            if found is not None:
                return found
        return None

    witness = extend(0, {}, set())
    if witness is not None:
        problem = witness_problem(g1, g2, l, h, witness)
        if problem is not None:
            raise AssertionError(f"reference decider built an invalid witness: {problem}")
    return witness
