import csv
import json

import pytest

from homeomatch import bench, pathindex
from homeomatch.bench import (
    DataSource,
    ExperimentSpec,
    PatternSource,
    RUN_FIELDS,
    SUMMARY_FIELDS,
    run_experiment,
    summarize,
    write_runs_csv,
    write_summary_csv,
)
from homeomatch.cli import main

from conftest import DATA_DIR, EXPERIMENTS_DIR


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        pattern=PatternSource(n1=3, m1=2, labels="unique"),
        data=DataSource(n2=30, m2=3, labels=5),
        l=1, h=2, algo="both", repetitions=1, seed_base=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# two points per sweep variable; tests/data/sweep_<variable>.csv holds each
# sweep's `bench --no-timing` runs CSV
GOLDEN_SWEEPS = {
    "n1": [3, 4],
    "m1": [1, 1.5],
    "n2": [25, 30],
    "m2": [2, 3.5],
    "labels": [4, 6],
    "l": [1, 2],
    "h": [2, 3],
}


def golden_sweep_spec(variable):
    return {
        "name": f"sweep_{variable}",
        "pattern": {"n1": 3, "m1": 2, "labels": "unique"},
        "data": {"n2": 30, "m2": 3, "labels": 5},
        "l": 1, "h": 2, "algo": "both", "repetitions": 1, "seed_base": 5,
        "sweep": {"variable": variable, "values": GOLDEN_SWEEPS[variable]},
    }


class TestSpec:
    def test_load_shipped_specs(self):
        for path in sorted(EXPERIMENTS_DIR.glob("*.json")):
            spec = ExperimentSpec.load(path)
            assert spec.repetitions >= 1

    def test_from_dict_round_trip(self, tmp_path):
        obj = {
            "name": "x",
            "pattern": {"n1": 4, "m1": 3, "labels": "unique"},
            "data": {"n2": 40, "m2": 3, "labels": 6},
            "l": 1, "h": 2, "algo": "ndshd1", "repetitions": 2,
            "seed_base": 3, "sweep": {"variable": "n2", "values": [40, 60]},
        }
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(obj))
        spec = ExperimentSpec.load(p)
        assert spec.algorithms() == ["ndshd1"]
        assert spec.sweep_values == (40, 60)

    @pytest.mark.parametrize("obj", [
        {"l": 1, "h": 2},
        {"name": "x", "sweep": {"variable": "n2", "values": 5}},
        [{"name": "x"}],
        {"name": "x", "repetition": 3},
        {"name": "x", "pattern": [4, 3]},
        {"name": "x", "data": {"n2": 40, "nodes": 40}},
        {"name": "x", "sweep": {"variable": "n2", "values": [40], "step": 20}},
        {"name": "x", "pattern": {"n1": [4]}},
        {"name": "x", "sweep": {"variable": "n2", "values": [[30]]}},
        {"name": "x", "sweep": {"values": [30, 40]}},
        {"name": "x", "repetitions": 2.7},
        {"name": "x", "l": True},
        {"name": ["x"]},
        {"name": "x", "pattern": {"file": 0}},
        {"name": "x", "sweep_variable": "n2", "sweep_values": [40]},
    ], ids=["no-name", "values-not-a-list", "not-an-object", "unknown-key",
            "section-not-an-object", "unknown-data-key", "unknown-sweep-key",
            "list-for-int", "list-sweep-value", "values-without-variable",
            "float-for-int", "bool-for-int", "list-for-name", "number-for-file",
            "flat-sweep-keys"])
    def test_from_dict_rejects_malformed_specs(self, obj):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(obj)

    @pytest.mark.parametrize("bad", [
        dict(algo="fastest"),
        dict(repetitions=0),
        dict(l=0),
        dict(h=0),
        dict(pattern=PatternSource(n1=3, m1=2, labels="distinct")),
        dict(timeout_s=0),
        dict(sweep_variable="n3", sweep_values=(1,)),
        dict(sweep_variable="n2", sweep_values=()),
        dict(timeout_s=float("nan")),
        dict(data=DataSource(n2=30, m2=float("nan"), labels=5)),
    ])
    def test_validation_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            tiny_spec(**bad).validate()

    @pytest.mark.parametrize("bad", [
        dict(sweep_variable="h", sweep_values=(2, 0)),
        dict(sweep_variable="l", sweep_values=(1, 3), h=2),
        dict(sweep_variable="labels", sweep_values=(10, 20, 4),
             pattern=PatternSource(n1=6, m1=2, labels="unique")),
        dict(sweep_variable="m2", sweep_values=(3, 30)),
        dict(sweep_variable="n1", sweep_values=(3, 0)),
    ])
    def test_every_sweep_window_is_checked_before_any_run(self, bad, monkeypatch):
        def no_solving(*args, **kwargs):
            raise AssertionError("a run started before the spec was rejected")

        monkeypatch.setattr(bench, "ndshd1", no_solving)
        monkeypatch.setattr(bench, "ndshd2", no_solving)
        monkeypatch.setattr(bench, "random_labeled_graph", no_solving)
        with pytest.raises(ValueError):
            tiny_spec(**bad).validate()
        with pytest.raises(ValueError):
            run_experiment(tiny_spec(**bad))

    @pytest.mark.parametrize("variable, values, from_file, read", [
        ("n1", (3, 4), ("pattern",), False),
        ("m1", (1, 2), ("pattern",), False),
        ("n2", (20, 30), ("data",), False),
        ("m2", (2, 3), ("data",), False),
        ("labels", (4, 6), ("pattern", "data"), False),
        ("labels", (4, 6), ("pattern",), True),
        ("labels", (4, 6), ("data",), True),
        ("n2", (20, 30), ("pattern",), True),
    ], ids=["n1-pattern-file", "m1-pattern-file", "n2-data-file", "m2-data-file",
            "labels-both-files", "labels-pattern-file", "labels-data-file",
            "n2-pattern-file"])
    def test_sweep_variable_must_be_read(self, variable, values, from_file, read):
        files = {"pattern": PatternSource(file=str(DATA_DIR / "worked_pattern.graph")),
                 "data": DataSource(file=str(DATA_DIR / "worked_data.graph"))}
        spec = tiny_spec(sweep_variable=variable, sweep_values=values,
                         **{section: files[section] for section in from_file})
        if read:
            spec.validate()
        else:
            with pytest.raises(ValueError, match="needs a generated"):
                spec.validate()

    def test_wide_h_sweep_validates(self):
        tiny_spec(sweep_variable="h", sweep_values=(1, 7)).validate()


class TestRunExperiment:
    def test_single_point_single_rep_row_count(self):
        rows, summary = run_experiment(tiny_spec(algo="ndshd2"))
        assert len(rows) == 1
        assert rows[0]["algo"] == "ndshd2"
        assert rows[0]["outcome"] in ("true", "false")
        assert len(summary) == 1

    def test_sweep_row_grid(self):
        spec = tiny_spec(sweep_variable="n2", sweep_values=(20, 30), repetitions=2)
        rows, summary = run_experiment(spec)
        # 2 points x 2 repetitions x 2 algorithms
        assert len(rows) == 8
        assert [r["sweep_value"] for r in rows[:4]] == [20, 20, 20, 20]
        assert {s["algo"] for s in summary} == {"ndshd1", "ndshd2"}

    def test_rows_are_deterministic_apart_from_timing(self):
        spec = tiny_spec(repetitions=3)
        rows_a, _ = run_experiment(spec)
        rows_b, _ = run_experiment(spec)
        strip = lambda r: {k: v for k, v in r.items() if k not in ("setup_s", "search_s")}
        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]

    def test_pattern_file_source(self, tmp_path):
        def file_spec(pattern):
            return tiny_spec(pattern=PatternSource(file=str(pattern)),
                             data=DataSource(file=str(DATA_DIR / "worked_data.graph")),
                             l=2, h=2, algo="ndshd1")

        rows, _ = run_experiment(file_spec(DATA_DIR / "worked_pattern.graph"))
        assert rows[0]["outcome"] == "true"
        # a file graph's m1 and m2 are its average degree 2m/n, not its edge count
        assert (rows[0]["n1"], rows[0]["m1"]) == (4, 2.5)
        assert (rows[0]["n2"], rows[0]["m2"]) == (9, 22 / 9)
        empty = tmp_path / "empty.graph"
        empty.write_text("n 0 m 0\n")
        rows, _ = run_experiment(file_spec(empty))
        assert (rows[0]["outcome"], rows[0]["n1"], rows[0]["m1"]) == ("true", 0, 0.0)

    def test_summary_statistics(self):
        rows = [
            {"algo": "ndshd1", "outcome": "true", "search_s": 1.0, "recursion_calls": 10},
            {"algo": "ndshd1", "outcome": "false", "search_s": 3.0, "recursion_calls": 30},
            {"algo": "ndshd1", "outcome": "timeout", "search_s": 60.0, "recursion_calls": 99},
        ]
        (s,) = summarize("x", rows)
        assert s["runs"] == 3
        assert s["timeout_count"] == 1
        assert s["search_s_max"] == 3.0  # timeouts excluded from time stats
        assert s["search_s_mean"] == 2.0
        assert s["calls_max"] == 99


class TestCsvOutput:
    def test_runs_csv_schema_and_parse_back(self, tmp_path):
        rows, summary = run_experiment(tiny_spec(repetitions=2))
        out = tmp_path / "runs.csv"
        write_runs_csv(out, rows)
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        assert list(parsed[0].keys()) == RUN_FIELDS
        for row in parsed:
            assert row["outcome"] in ("true", "false", "timeout")
            assert float(row["search_s"]) >= 0
            int(row["recursion_calls"])

    def test_summary_csv_schema(self, tmp_path):
        rows, summary = run_experiment(tiny_spec())
        out = tmp_path / "summary.csv"
        write_summary_csv(out, summary)
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert list(parsed[0].keys()) == SUMMARY_FIELDS

    def test_no_timing_blanks_only_time_columns(self, tmp_path):
        rows, _ = run_experiment(tiny_spec())
        out = tmp_path / "runs.csv"
        write_runs_csv(out, rows, include_timing=False)
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        for row in parsed:
            assert row["setup_s"] == "" and row["search_s"] == ""
            assert row["recursion_calls"] != ""


class TestBenchCommand:
    def test_cli_bench_writes_both_files_deterministically(self, tmp_path, capsys):
        spec = {
            "name": "cli_tiny",
            "pattern": {"n1": 3, "m1": 2, "labels": "unique"},
            "data": {"n2": 25, "m2": 3, "labels": 5},
            "l": 1, "h": 2, "algo": "both", "repetitions": 2, "seed_base": 7,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"runs_{tag}.csv"
            rc = main(["bench", str(spec_path), "--out", str(out), "--no-timing"])
            assert rc == 0
            outs.append((out.read_bytes(),
                         (tmp_path / f"runs_{tag}.csv.summary.csv").read_bytes()))
        assert outs[0] == outs[1]
        assert "algo" in capsys.readouterr().out

    @pytest.mark.parametrize("variable", sorted(GOLDEN_SWEEPS))
    def test_sweep_sets_its_variable(self, variable, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(golden_sweep_spec(variable)))
        out = tmp_path / "runs.csv"
        assert main(["bench", str(spec), "--out", str(out), "--no-timing"]) == 0
        assert out.read_bytes() == (DATA_DIR / f"sweep_{variable}.csv").read_bytes()

    def test_runs_before_an_over_budget_point_are_written(self, tmp_path, capsys, monkeypatch):
        # The h = 4 index exceeds the patched budget; the h = 1 and h = 2
        # runs before it keep their rows, and no summary is written.
        monkeypatch.setattr(pathindex, "MAX_PATHS", 300)
        spec = {"name": "budget", "pattern": {"n1": 3, "m1": 2.0},
                "data": {"n2": 60, "m2": 4.0, "labels": 5}, "l": 1}
        runs = {}
        for values in ([1, 2, 4], [1, 2]):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({**spec, "sweep": {"variable": "h", "values": values}}))
            runs[len(values)] = out = tmp_path / f"runs_{len(values)}.csv"
            rc = main(["bench", str(path), "--out", str(out), "--no-timing"])
            assert rc == (2 if len(values) == 3 else 0)
        err = capsys.readouterr().err
        assert "error: the path index exceeds its budget of 300 stored paths" in err
        assert not (tmp_path / "runs_3.csv.summary.csv").exists()
        assert runs[3].read_bytes() == runs[2].read_bytes()
        assert len(runs[2].read_text().splitlines()) == 1 + 4

    def test_cli_bench_unknown_spec_key_is_exit_two(self, tmp_path, capsys):
        # specs written for older versions may still carry "order"
        for key, value in (("repetition", 3), ("order", "mcf")):
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"name": "x", key: value}))
            out = tmp_path / "o.csv"
            assert main(["bench", str(spec), "--out", str(out)]) == 2
            assert f"unknown key(s) in spec: {key}\n" in capsys.readouterr().err
            assert not out.exists()

    def test_cli_bench_non_string_file_is_exit_two(self, tmp_path, capsys, monkeypatch):
        def no_loading(*args, **kwargs):
            raise AssertionError("a graph was read for a spec that should be rejected")

        monkeypatch.setattr(bench, "load_graph", no_loading)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "x", "pattern": {"file": 0}}))
        out = tmp_path / "o.csv"
        assert main(["bench", str(spec), "--out", str(out)]) == 2
        assert "error: spec pattern file must be a string or null" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_bench_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bench", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
