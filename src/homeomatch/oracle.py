"""Brute-force reference solver and witness verifier.

Ground truth for the search module: everything here works straight from
the problem definition (injective label-preserving node map, one simple
path per pattern edge with matching ends and length in [l, h], all
mapped paths pairwise independent).  No candidate matrix, no path
index, no pruning heuristics; slow on purpose and guarded to small
instances, so agreement with the search algorithms is meaningful
evidence.  Pure functions throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import LabeledGraph, check_window
from .mapping import Mapping

__all__ = [
    "MAX_PATTERN_VERTICES",
    "MAX_DATA_VERTICES",
    "MAX_PATH_LENGTH",
    "VerificationResult",
    "verify_mapping",
    "bounded_simple_paths",
    "brute_force_solve",
]

MAX_PATTERN_VERTICES = 6
MAX_DATA_VERTICES = 14
MAX_PATH_LENGTH = 4


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _conflict_vertex(p, q):
    """A vertex violating independence of two paths, or None.

    Two paths are independent when neither contains an inner vertex of
    the other; sharing end vertices is allowed.
    """
    qset = set(q)
    for x in p[1:-1]:
        if x in qset:
            return x
    pset = set(p)
    for x in q[1:-1]:
        if x in pset:
            return x
    return None


def verify_mapping(g1: LabeledGraph, g2: LabeledGraph, l: int, h: int,
                   mapping: Mapping) -> VerificationResult:
    """Check a complete witness clause by clause, naming the first violation.

    Raises ValueError when the window is invalid or the mapping is
    structurally incomplete (unmapped pattern vertices or edges); semantic
    problems come back as ``VerificationResult(False, reason)``.
    """
    check_window(l, h)
    f = mapping.node_map
    for v in g1.vertices:
        if v not in f:
            raise ValueError(f"mapping is incomplete: pattern vertex {v} unmapped")
    for e in g1.sorted_edges():
        if e not in mapping.edge_path_map:
            raise ValueError(f"mapping is incomplete: pattern edge {e} unmapped")
    extra = sorted(set(f) - set(g1.vertices))
    if extra:
        return VerificationResult(False, f"node map keys {extra} are not pattern vertices")
    for v in g1.vertices:
        if not 1 <= f[v] <= g2.n:
            return VerificationResult(False, f"image {f[v]} of pattern vertex {v} is not a data vertex")
    if len({f[v] for v in g1.vertices}) != g1.n:
        return VerificationResult(False, "node map is not injective")
    for v in g1.vertices:
        if g1.label(v) != g2.label(f[v]):
            return VerificationResult(
                False, f"label mismatch: pattern vertex {v} -> data vertex {f[v]}")
    items = sorted(mapping.edge_path_map.items())
    for (a, b), path in items:
        if (a, b) not in g1.edges:
            return VerificationResult(False, f"({a}, {b}) is not a pattern edge")
        k = len(path) - 1
        if not l <= k <= h:
            return VerificationResult(
                False, f"path for edge ({a}, {b}) has length {k} outside [{l}, {h}]")
        if len(set(path)) != len(path):
            return VerificationResult(False, f"path for edge ({a}, {b}) is not simple")
        for x, y in zip(path, path[1:]):
            if not g2.has_edge(x, y):
                return VerificationResult(
                    False, f"path for edge ({a}, {b}) uses the non-edge ({x}, {y})")
        if {path[0], path[-1]} != {f[a], f[b]}:
            return VerificationResult(
                False, f"path for edge ({a}, {b}) does not join the mapped endpoints")
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            e1, p = items[i]
            e2, q = items[j]
            shared = _conflict_vertex(p, q)
            if shared is not None:
                return VerificationResult(
                    False,
                    f"paths for edges {e1} and {e2} are not independent: share inner vertex {shared}")
    return VerificationResult(True)


def bounded_simple_paths(g: LabeledGraph, u: int, w: int, l: int, h: int) -> list:
    """Every simple path from u to w with edge count in [l, h], DFS order.

    The DFS keeps one neighbour iterator per path vertex on an explicit
    stack, so a path's length is not bounded by Python's recursion limit.
    Raises ValueError for an invalid window, and for an end that is not
    an int, is a bool or is not a vertex of ``g``.
    """
    check_window(l, h)
    for v in (u, w):
        if type(v) is not int or not 1 <= v <= g.n:
            raise ValueError(f"path end {v!r} is not a vertex of the graph")
    if u == w:
        return []
    out: list[tuple[int, ...]] = []
    path, seen = [u], {u}
    stack = [iter(g.neighbors(u))]
    while stack:
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            seen.remove(path.pop())
        elif x == w:  # never in seen
            if len(path) >= l:
                out.append((*path, w))
        elif x not in seen and len(path) < h:
            path.append(x)
            seen.add(x)
            stack.append(iter(g.neighbors(x)))
    return out


# The recursive helpers below are module functions, not nested closures: a
# closure that calls itself sits in a reference cycle with its own cell,
# which keeps everything it reaches alive until a cyclic garbage collection.
# Their depth is at most the pattern's size, which the guard bounds.

def _node_maps(candidates: dict, i: int, f: dict, used: set):
    """Yield ``f`` extended injectively over vertices i..n1, in lexicographic order."""
    if i > len(candidates):
        yield f
        return
    for w in candidates[i]:
        if w not in used:
            f[i] = w
            used.add(w)
            yield from _node_maps(candidates, i + 1, f, used)
            del f[i]
            used.discard(w)


def _independent_choices(opts: list, chosen: list):
    """Yield ``chosen`` extended by one path per remaining list of ``opts``,
    pairwise independent, in DFS order."""
    if len(chosen) == len(opts):
        yield chosen
        return
    for p in opts[len(chosen)]:
        if all(_conflict_vertex(p, q) is None for q in chosen):
            chosen.append(p)
            yield from _independent_choices(opts, chosen)
            chosen.pop()


def brute_force_solve(g1: LabeledGraph, g2: LabeledGraph, l: int, h: int) -> list:
    """All complete witnesses, by exhaustive enumeration.

    Node maps are generated in lexicographic order with no filtering
    beyond labels and injectivity.  Per-edge path choices are combined
    with an incremental pairwise-independence check, which returns the
    same set as filtering the full cross product.  Refuses instances
    beyond the size guard.
    """
    check_window(l, h)
    if g1.n > MAX_PATTERN_VERTICES or g2.n > MAX_DATA_VERTICES or h > MAX_PATH_LENGTH:
        raise ValueError(
            "instance exceeds the brute-force guard "
            f"(n1 <= {MAX_PATTERN_VERTICES}, n2 <= {MAX_DATA_VERTICES}, h <= {MAX_PATH_LENGTH})")
    if g1.n == 0:
        return [Mapping({}, {})]
    candidates = {v: [w for w in g2.vertices if g2.label(w) == g1.label(v)]
                  for v in g1.vertices}
    edges = g1.sorted_edges()
    found: list[Mapping] = []
    for f in _node_maps(candidates, 1, {}, set()):
        opts = []
        for a, b in edges:
            ps = bounded_simple_paths(g2, f[a], f[b], l, h)
            if not ps:
                break
            opts.append(ps)
        else:
            for chosen in _independent_choices(opts, []):
                m = Mapping(dict(f), dict(zip(edges, chosen)))
                check = verify_mapping(g1, g2, l, h, m)
                if not check:
                    raise AssertionError(f"enumerated an invalid mapping: {check.reason}")
                found.append(m)
    return found
