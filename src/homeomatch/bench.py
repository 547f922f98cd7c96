"""Benchmark harness: seeded experiment sweeps with CSV output.

An experiment spec is a JSON object:

    {
      "name": "exp1_data_scale",
      "pattern": {"n1": 4, "m1": 3, "labels": "unique"},   or {"file": "..."}
      "data":    {"n2": 500, "m2": 4, "labels": 20},       or {"file": "..."}
      "l": 1, "h": 3,
      "algo": "both",                  ndshd1 | ndshd2 | both
      "repetitions": 5,
      "seed_base": 1,
      "sweep": {"variable": "n2", "values": [200, 400]},   optional
      "timeout_s": 60
    }

Only ``name`` is required; a key not shown here is rejected.  The
``PatternSource``, ``DataSource`` and ``ExperimentSpec`` fields define
each key's type and default: an ``int`` field takes a JSON integer (not
a bool), a ``float`` field any number, a ``str`` field a string, and
``file`` a string or null.  Sweep values are checked like the field they
set.  A sweep needs both a variable and nonempty values, and the
variable must be read by a generated section: ``n1``/``m1`` by the
pattern, ``n2``/``m2`` by the data, ``labels`` by either.

Pattern and data graphs are regenerated per repetition from seeds
derived deterministically from ``seed_base``, the sweep point index and
the repetition index, so reruns of the same spec produce identical
instances.  The data graph's ``labels`` value fixes the shared label
universe ``L0..L{k-1}``; a generated pattern draws its labels from that
universe, either uniformly (``"random"``) or as distinct tokens
(``"unique"``).

One CSV row is written per (sweep point x repetition x algorithm) with
the search timed separately from setup (matrix construction plus path
enumeration).  Runs hitting the per-run wall-clock guard report the
outcome ``timeout``.  A second CSV carries per-algorithm summary
statistics (max / mean / standard deviation of search time and of
recursion calls).  Timing columns can be suppressed for byte-stable
regression diffing.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
import time
from dataclasses import dataclass, field, fields, replace

from .graph import LabeledGraph, check_random_graph_args, check_window, load_graph, random_labeled_graph
from .search import STRATEGIES, SearchStats, SearchTimeout, ndshd1, ndshd2

__all__ = [
    "PatternSource",
    "DataSource",
    "ExperimentSpec",
    "RUN_FIELDS",
    "SUMMARY_FIELDS",
    "iter_runs",
    "run_experiment",
    "write_runs_csv",
    "write_summary_csv",
    "format_summary_table",
]

RUN_FIELDS = [
    "experiment", "sweep_variable", "sweep_value", "repetition", "algo",
    "n1", "m1", "n2", "m2", "labels", "l", "h",
    "pattern_seed", "data_seed", "outcome", "setup_s", "search_s",
    "recursion_calls", "max_depth", "mean_backtrack_depth",
]

SUMMARY_FIELDS = [
    "experiment", "algo", "runs", "true_count", "false_count", "timeout_count",
    "search_s_max", "search_s_mean", "search_s_std",
    "calls_max", "calls_mean", "calls_std",
]

# sweep variable -> the section it sets; None is the spec itself
_SWEEP_SECTIONS = {"n1": "pattern", "m1": "pattern", "n2": "data", "m2": "data",
                   "labels": "data", "l": None, "h": None}

# annotated field type -> (accepted JSON value types, their description)
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


@dataclass(frozen=True)
class PatternSource:
    n1: int = 4
    m1: float = 3.0
    labels: str = "unique"          # "unique" | "random"
    file: str | None = None


@dataclass(frozen=True)
class DataSource:
    n2: int = 100
    m2: float = 4.0
    labels: int = 10
    file: str | None = None


@dataclass
class ExperimentSpec:
    name: str
    pattern: PatternSource = field(default_factory=PatternSource)
    data: DataSource = field(default_factory=DataSource)
    l: int = 1
    h: int = 3
    algo: str = "both"
    repetitions: int = 1
    seed_base: int = 1
    sweep_variable: str | None = None
    sweep_values: tuple = ()
    timeout_s: float = 60.0

    def validate(self):
        if self.algo not in (*STRATEGIES, "both"):
            raise ValueError(f"algo must be ndshd1, ndshd2 or both; got {self.algo!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.sweep_variable is not None or self.sweep_values:
            _check_sweep(self)
        if self.pattern.file is None and self.pattern.labels not in ("unique", "random"):
            raise ValueError("pattern labels policy must be 'unique' or 'random'")
        if not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive")
        # every point's window and generator arguments, before any instance
        # is generated or solved
        for value in self.sweep_values or (None,):
            point = _sweep_point(self, value)
            check_window(point.l, point.h)
            _check_generator_args(point.pattern, point.data)

    def algorithms(self) -> list[str]:
        return list(STRATEGIES) if self.algo == "both" else [self.algo]

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentSpec":
        """Parse a spec object; a malformed spec or an unknown key raises ValueError."""
        top_keys = {f.name for f in fields(cls)} - {"sweep_variable", "sweep_values"} | {"sweep"}
        obj = dict(_json_object(obj, "spec", top_keys))
        if "name" not in obj:
            raise ValueError("spec has no name")
        sweep = _json_object(obj.pop("sweep", {}), "spec sweep", {"variable", "values"})
        values = sweep.get("values", [])
        if not isinstance(values, list):
            raise ValueError("sweep values must be a list")
        obj["sweep_variable"] = sweep.get("variable")
        pattern = PatternSource(**_typed_fields(PatternSource, "spec pattern",
                                                obj.pop("pattern", {})))
        data = DataSource(**_typed_fields(DataSource, "spec data", obj.pop("data", {})))
        spec = cls(pattern=pattern, data=data, sweep_values=tuple(values),
                   **_typed_fields(cls, "spec", obj))
        spec.validate()
        return spec

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _json_object(value, where: str, allowed: set[str]) -> dict:
    """``value`` checked to be a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(value) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return value


def _typed_fields(cls, where: str, obj) -> dict:
    """``obj``'s values, each checked against its ``cls`` field's annotated type.

    ``obj`` must be a JSON object of ``cls`` fields; a ``float`` field's
    integer comes back as a float.
    """
    types = {f.name: f.type for f in fields(cls)}
    out = {}
    for key, value in _json_object(obj, where, set(types)).items():
        accepted, expected = _JSON_TYPES[types[key]]
        if type(value) not in accepted:
            raise ValueError(f"{where} {key} must be {expected}; "
                             f"got {json.dumps(value, default=repr)}")
        out[key] = float(value) if types[key] == "float" else value
    return out


def _check_sweep(spec: ExperimentSpec):
    """Raise ValueError unless the sweep has values and a variable that a run reads."""
    var = spec.sweep_variable
    if var not in _SWEEP_SECTIONS:
        raise ValueError(f"sweep variable must be one of {tuple(_SWEEP_SECTIONS)}; "
                         f"got {json.dumps(var)}")
    if not spec.sweep_values:
        raise ValueError("sweep values must be nonempty")
    section = _SWEEP_SECTIONS[var]
    if section is not None:
        # the label count is also a generated pattern's label universe
        readers = ("pattern", "data") if var == "labels" else (section,)
        if all(getattr(spec, s).file is not None for s in readers):
            raise ValueError(f"sweep variable {var} needs a generated "
                             f"{' or '.join(readers)} graph")


def _sweep_point(spec: ExperimentSpec, value) -> ExperimentSpec:
    """The spec of one sweep point: the sweep variable set to ``value``."""
    if value is None:
        return spec
    var = spec.sweep_variable
    section = _SWEEP_SECTIONS[var]
    owner = spec if section is None else getattr(spec, section)
    owner = replace(owner, **_typed_fields(type(owner), "sweep value", {var: value}))
    return owner if section is None else replace(spec, **{section: owner})


def _check_generator_args(psrc: PatternSource, dsrc: DataSource):
    """Raise ValueError unless this point's instance can be generated."""
    if psrc.file is None:
        check_random_graph_args(psrc.n1, psrc.m1, dsrc.labels)
        if psrc.labels == "unique" and dsrc.labels < psrc.n1:
            raise ValueError("unique pattern labels need a label universe >= n1")
    if dsrc.file is None:
        check_random_graph_args(dsrc.n2, dsrc.m2, dsrc.labels)


def _generated_pattern(src: PatternSource, universe: int, seed: int) -> LabeledGraph:
    g = random_labeled_graph(src.n1, src.m1, universe, seed)
    if src.labels == "unique":
        rng = random.Random(f"{seed}-pattern-labels")
        tokens = rng.sample([f"L{i}" for i in range(universe)], src.n1)
        g = LabeledGraph(g.n, {v: tokens[v - 1] for v in g.vertices}, g.edges)
    return g


def _instance(psrc: PatternSource, dsrc: DataSource, pattern_seed: int,
              data_seed: int):
    if psrc.file is not None:
        g1 = load_graph(psrc.file)
    else:
        g1 = _generated_pattern(psrc, dsrc.labels, pattern_seed)
    if dsrc.file is not None:
        g2 = load_graph(dsrc.file)
    else:
        g2 = random_labeled_graph(dsrc.n2, dsrc.m2, dsrc.labels, data_seed)
    return g1, g2


def _average_degree(g: LabeledGraph) -> float:
    """2m/n, the quantity a generated graph's ``m1`` or ``m2`` sets; 0.0 when n = 0."""
    return 2 * g.m / g.n if g.n else 0.0


def iter_runs(spec: ExperimentSpec):
    """Execute the whole sweep, yielding each run's row as it finishes.

    Rows come in deterministic sweep order.
    """
    spec.validate()
    for idx, value in enumerate(spec.sweep_values or (None,)):
        point = _sweep_point(spec, value)
        psrc, dsrc, l, h = point.pattern, point.data, point.l, point.h
        for rep in range(spec.repetitions):
            base = spec.seed_base + 7919 * idx + 104729 * rep
            pattern_seed, data_seed = 2 * base + 1, 2 * base
            g1, g2 = _instance(psrc, dsrc, pattern_seed, data_seed)
            for algo in spec.algorithms():
                deadline = time.monotonic() + spec.timeout_s
                stats = SearchStats()
                fn = ndshd1 if algo == "ndshd1" else ndshd2
                try:
                    mapping = fn(g1, g2, l, h, deadline=deadline, stats=stats)
                    outcome = "true" if mapping is not None else "false"
                except SearchTimeout:
                    outcome = "timeout"
                row = {
                    "experiment": spec.name,
                    "sweep_variable": spec.sweep_variable or "",
                    "sweep_value": "" if value is None else value,
                    "repetition": rep,
                    "algo": algo,
                    "n1": g1.n,
                    "m1": psrc.m1 if psrc.file is None else _average_degree(g1),
                    "n2": dsrc.n2 if dsrc.file is None else g2.n,
                    "m2": dsrc.m2 if dsrc.file is None else _average_degree(g2),
                    "labels": dsrc.labels,
                    "l": l,
                    "h": h,
                    "pattern_seed": pattern_seed,
                    "data_seed": data_seed,
                    "outcome": outcome,
                    "setup_s": stats.setup_time,
                    "search_s": stats.wall_time,
                    "recursion_calls": stats.recursion_calls,
                    "max_depth": stats.max_depth,
                    "mean_backtrack_depth": stats.mean_backtrack_depth,
                }
                yield row


def run_experiment(spec: ExperimentSpec):
    """Execute the whole sweep; returns (run rows, summary rows)."""
    rows = list(iter_runs(spec))
    return rows, summarize(spec.name, rows)


def summarize(name: str, rows) -> list[dict]:
    """Per-algorithm outcome counts plus max/mean/std of time and calls.

    Timed-out runs are counted but excluded from the time statistics.
    """
    out = []
    for algo in sorted({r["algo"] for r in rows}):
        sub = [r for r in rows if r["algo"] == algo]
        times = [r["search_s"] for r in sub if r["outcome"] != "timeout"]
        calls = [r["recursion_calls"] for r in sub]
        out.append({
            "experiment": name,
            "algo": algo,
            "runs": len(sub),
            "true_count": sum(r["outcome"] == "true" for r in sub),
            "false_count": sum(r["outcome"] == "false" for r in sub),
            "timeout_count": sum(r["outcome"] == "timeout" for r in sub),
            "search_s_max": max(times, default=0.0),
            "search_s_mean": statistics.fmean(times) if times else 0.0,
            "search_s_std": statistics.stdev(times) if len(times) > 1 else 0.0,
            "calls_max": max(calls, default=0),
            "calls_mean": statistics.fmean(calls) if calls else 0.0,
            "calls_std": statistics.stdev(calls) if len(calls) > 1 else 0.0,
        })
    return out


_TIMING_RUN_FIELDS = ("setup_s", "search_s")
_TIMING_SUMMARY_FIELDS = ("search_s_max", "search_s_mean", "search_s_std")


def _format_cell(name: str, value, include_timing: bool) -> str:
    if name in _TIMING_RUN_FIELDS or name in _TIMING_SUMMARY_FIELDS:
        return f"{value:.6f}" if include_timing else ""
    if name in ("mean_backtrack_depth", "calls_mean", "calls_std"):
        return f"{value:.4f}"
    return str(value)


def _write_csv(path, fields, rows, include_timing):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_cell(f, row[f], include_timing) for f in fields])


def write_runs_csv(path, rows, include_timing: bool = True):
    _write_csv(path, RUN_FIELDS, rows, include_timing)


def write_summary_csv(path, summaries, include_timing: bool = True):
    _write_csv(path, SUMMARY_FIELDS, summaries, include_timing)


def format_summary_table(summaries, include_timing: bool = True) -> str:
    """Fixed-width summary; without timing the search-time columns are left out."""
    timing = "  t_max[s]  t_mean[s]  t_std[s]" if include_timing else ""
    lines = [f"algo      runs  true  false  timeout{timing}  calls_mean"]
    for s in summaries:
        if include_timing:
            timing = (f"  {s['search_s_max']:>8.3f}  {s['search_s_mean']:>9.4f}"
                      f"  {s['search_s_std']:>8.4f}")
        lines.append(
            f"{s['algo']:<8}  {s['runs']:>4}  {s['true_count']:>4}  {s['false_count']:>5}"
            f"  {s['timeout_count']:>7}{timing}  {s['calls_mean']:>10.1f}")
    return "\n".join(lines)
