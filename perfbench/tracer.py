"""In-memory spans around the public calls of each homeomatch layer.

``Tracer.install()`` replaces each wrapped function wherever a caller
looks it up: the attribute of every loaded ``homeomatch`` module bound
to it (``search`` imports ``enumerate_paths`` by name), or the class
attribute for methods.  ``uninstall()`` puts every original back.

A span is ``[id, parent, op, name, start, end, covered]`` in seconds of
``perf_counter``; ``covered`` is the time of its direct children.  A
layer's self time is a span's duration minus ``covered``.  Work the
wrappers do to count things runs inside ``pause()``, whose time is
taken out of every span open around it, so counting does not show up
as layer time.
"""

from __future__ import annotations

import inspect
import json
import random
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from homeomatch import graph, oracle, pathindex, search
from reference import CheckFailed

# (layer, owner, attributes).  The owner is a module for functions and a
# class for methods.
LAYERS = (
    ("graph", graph, ("random_labeled_graph", "plant_subdivision")),
    ("matrix", search.CompatibleMatrix, ("initial",)),
    ("index", pathindex, ("enumerate_paths",)),
    ("prune", pathindex.PathStore,
     ("remove_paths_through_vertex", "remove_paths_conflicting_with", "undo")),
    ("refine", search.MatchState, ("refine_compatibility",)),
    ("snapshot", search.CompatibleMatrix, ("snapshot", "restore")),
    ("candidates", search.MatchState, ("node_candidates", "path_candidates")),
    ("engine", search, ("ndshd1", "ndshd2", "enumerate_all")),
)

PAIR_SAMPLES = 12


class Tracer:
    """Spans and per-layer counts of the calls made while installed."""

    def __init__(self, seed: int = 0):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None  # id of the operation being traced; None traces nothing
        self._stack: list[list] = []
        self._paused = 0.0
        self._rng = random.Random(seed)
        self._installed: list[tuple] = []
        self._last_matrix = None

    # spans -------------------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self.op, name, time.perf_counter(), None, 0.0,
                self._paused]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _end(self, span: list):
        span[5] = time.perf_counter() - (self._paused - span.pop())
        self._stack.pop()
        if self._stack:
            self._stack[-1][6] += span[5] - span[4]

    @contextmanager
    def pause(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """(total, self) seconds per layer over all closed spans."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for _id, _parent, _op, name, start, end, covered in self.spans:
            layer = name.split(".", 1)[0]
            out[layer][0] += end - start
            out[layer][1] += end - start - covered
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path):
        fields = ["id", "parent", "op", "name", "start", "end", "covered"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)

    # installation --------------------------------------------------------

    def install(self):
        for layer, owner, names in LAYERS:
            for name in names:
                if inspect.isclass(owner):
                    raw = owner.__dict__[name]
                    func = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = self._wrap(layer, name, func)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    setattr(owner, name, wrapped)
                    self._installed.append((owner, name, raw))
                else:
                    func = getattr(owner, name)
                    wrapped = self._wrap(layer, name, func)
                    for module in list(sys.modules.values()):
                        mod_name = getattr(module, "__name__", "") or ""
                        if mod_name.split(".")[0] == "homeomatch" and module.__dict__.get(name) is func:
                            setattr(module, name, wrapped)
                            self._installed.append((module, name, func))

    def uninstall(self):
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, layer: str, name: str, func):
        span_name = f"{layer}.{name}"
        after = getattr(self, f"_after_{layer}")
        if inspect.isgeneratorfunction(func):
            def gen_wrapper(*args, **kwargs):
                if self.op is None:
                    return (yield from func(*args, **kwargs))
                inner = func(*args, **kwargs)
                try:
                    while True:
                        span = self._begin(span_name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._end(span)
                        yield item
                finally:
                    inner.close()
                    with self.pause():
                        after(name, args, kwargs, None)
            gen_wrapper.__wrapped__ = func
            gen_wrapper.perfbench_tracer = self
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if self.op is None:
                return func(*args, **kwargs)
            with self.pause():
                before = self._before(layer, args)
            span = self._begin(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._end(span)
            with self.pause():
                self.counts[f"{layer}.calls"] += 1
                after(name, args, kwargs, result, before)
            return result
        wrapper.__wrapped__ = func
        wrapper.perfbench_tracer = self
        return wrapper

    # per-layer counts ----------------------------------------------------

    def _before(self, layer, args):
        if layer == "refine":
            return args[0].matrix.ones()
        return None

    def _after_graph(self, name, args, kwargs, result, before=None):
        g = result[0] if isinstance(result, tuple) else result
        self.counts["graph.edges"] += g.m

    def _after_matrix(self, name, args, kwargs, result, before=None):
        g1 = args[1]  # args[0] is the class
        self.counts["matrix.cells"] += result.ones()
        self._last_matrix = (g1, [set(r) for r in result.rows])

    def _after_index(self, name, args, kwargs, store, before=None):
        g2, cands, l, h = args[:4]
        self.counts["index.paths"] += len(store)
        self.counts["index.sources"] += len(cands)
        if self._last_matrix is not None:
            g1, rows = self._last_matrix
            ends = [(rows[a], rows[b]) for a, b in g1.edges]
            fit = 0
            for pid in range(len(store)):
                verts = store.vertices(pid)
                u, w = verts[0], verts[-1]
                if any((u in ra and w in rb) or (u in rb and w in ra) for ra, rb in ends):
                    fit += 1
            self.counts["index.fitting_paths"] += fit
        # Sampled pair counts against an independent recount; every path
        # of a fresh store is alive.
        pairs = set()
        if len(store):
            for _ in range(PAIR_SAMPLES):
                verts = store.vertices(self._rng.randrange(len(store)))
                pairs.add((verts[0], verts[-1]))
        if len(cands) > 1:
            for _ in range(PAIR_SAMPLES):
                u, w = self._rng.sample(cands, 2)
                pairs.add((u, w))
        for u, w in sorted(pairs):
            expect = len(oracle.bounded_simple_paths(g2, u, w, l, h))
            got = store.pair_count(u, w)
            if got != expect:
                raise CheckFailed(f"pair_count({u}, {w}) = {got}, recount gives {expect}")
        self.counts["index.pairs_checked"] += len(pairs)

    def _after_prune(self, name, args, kwargs, result, before=None):
        if result is not None:
            self.counts["prune.paths_killed"] += len(result.killed)

    def _after_refine(self, name, args, kwargs, result, before=None):
        self.counts["refine.cells_cleared"] += before - args[0].matrix.ones()

    def _after_snapshot(self, name, args, kwargs, result, before=None):
        rows = result if name == "snapshot" else args[1]
        self.counts["snapshot.cells_copied"] += sum(len(r) for r in rows)

    def _after_candidates(self, name, args, kwargs, result, before=None):
        self.counts["candidates.returned"] += len(result)

    def _after_engine(self, name, args, kwargs, result, before=None):
        stats = kwargs.get("stats")
        if stats is None:
            return
        if name == "enumerate_all":
            self.counts["engine.calls"] += 1
        self.counts["engine.recursion_calls"] += stats.recursion_calls
        self.counts["engine.backtracks"] += stats.backtracks
        if name != "enumerate_all" and result is not None:
            g1 = args[0]
            self.counts["engine.useful_steps"] += g1.n + g1.m
            self.counts["engine.positive_recursion_calls"] += stats.recursion_calls


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable from homeomatch; empty when clean."""
    found = []
    for _layer, owner, names in LAYERS:
        for name in names:
            if inspect.isclass(owner):
                raw = owner.__dict__[name]
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                if hasattr(func, "perfbench_tracer"):
                    found.append(f"{owner.__name__}.{name}")
    for module in list(sys.modules.values()):
        mod_name = getattr(module, "__name__", "") or ""
        if mod_name.split(".")[0] != "homeomatch":
            continue
        for attr, value in list(module.__dict__.items()):
            if hasattr(value, "perfbench_tracer") and callable(value):
                found.append(f"{mod_name}.{attr}")
    return found
