import itertools
import json
import time
from types import SimpleNamespace
from unittest import mock

import pytest

from homeomatch import GraphFormatError, Mapping, load_graph, pathindex, search
from homeomatch.cli import main
from homeomatch.oracle import brute_force_solve, verify_mapping

from conftest import DATA_DIR

PATTERN = str(DATA_DIR / "worked_pattern.graph")
DATA = str(DATA_DIR / "worked_data.graph")
MAPPING = str(DATA_DIR / "worked_mapping.txt")


class TestDetermine:
    def test_true_with_witness(self, capsys, worked_pattern, worked_data):
        rc = main(["determine", PATTERN, DATA, "--l", "2", "--h", "2", "--witness"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "true"
        witness = Mapping.parse("\n".join(out.splitlines()[1:]))
        assert verify_mapping(worked_pattern, worked_data, 2, 2, witness)

    def test_false_is_exit_one(self, capsys):
        rc = main(["determine", PATTERN, DATA, "--l", "3", "--h", "3"])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_missing_file_is_exit_two(self, capsys):
        rc = main(["determine", "no-such-file.graph", DATA, "--l", "1", "--h", "2"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_window_is_exit_two(self, capsys):
        rc = main(["determine", PATTERN, DATA, "--l", "3", "--h", "2"])
        assert rc == 2

    def test_path_index_over_budget_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(pathindex, "MAX_PATHS", 3)
        rc = main(["determine", PATTERN, DATA, "--l", "2", "--h", "2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: the path index exceeds its budget of 3 stored paths; "
            "narrow the window [l, h]\n")

    def test_wide_window_answers(self, capsys):
        rc = main(["determine", PATTERN, DATA, "--l", "1", "--h", "9"])
        assert rc == 0
        assert capsys.readouterr().out == "true\n"

    def test_stats_json(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        rc = main(["determine", PATTERN, DATA, "--l", "2", "--h", "2",
                   "--stats", str(stats), "--trace"])
        assert rc == 0
        payload = json.loads(stats.read_text())
        assert payload["outcome"] is True
        assert payload["algo"] == "ndshd2"
        assert payload["recursion_calls"] == len(payload["trace"])
        assert payload["recursion_calls"] >= payload["max_depth"]
        assert payload["wall_time_s"] >= 0

    def test_trace_requires_stats(self, capsys):
        with pytest.raises(SystemExit):
            main(["determine", PATTERN, DATA, "--l", "2", "--h", "2", "--trace"])


class TestEnumerateAndSolve:
    def test_enumerate_single_witness(self, capsys, worked_mapping):
        rc = main(["enumerate", PATTERN, DATA, "--l", "2", "--h", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert Mapping.parse(out).canonical_key() == worked_mapping.canonical_key()

    def test_enumerate_unsatisfiable(self, capsys):
        rc = main(["enumerate", PATTERN, DATA, "--l", "3", "--h", "3"])
        assert rc == 1
        assert capsys.readouterr().out == ""

    def test_enumerate_limit(self, capsys):
        rc = main(["enumerate", PATTERN, DATA, "--l", "1", "--h", "3", "--limit", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("n 1 ") == 2  # two mapping blocks

    @pytest.mark.parametrize("command,extra", [("enumerate", []), ("solve", [])])
    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_exit_two(self, capsys, command, extra, limit):
        with pytest.raises(SystemExit) as exc:
            main([command, PATTERN, DATA, "--l", "1", "--h", "3", "--limit", limit] + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit" in captured.err

    @pytest.mark.parametrize("extra", [[], ["--limit", "5"]])
    def test_solve_limit(self, capsys, worked_pattern, worked_data, extra):
        # the worked example has 6 witnesses at (1, 3); solve prints the
        # oracle's, in its order, and a limit keeps the first ones
        oracle = brute_force_solve(worked_pattern, worked_data, 1, 3)
        assert len(oracle) == 6
        shown = oracle[:int(extra[1])] if extra else oracle
        assert main(["solve", PATTERN, DATA, "--l", "1", "--h", "3"] + extra) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        assert [Mapping.parse(b) for b in blocks] == shown

    def test_solve_oracle_matches_search(self, capsys):
        # solve prints the oracle's witnesses and enumerate the search's:
        # the same set under the same exit code, in an order of their own
        for l, h, rc in (("1", "3", 0), ("2", "2", 0), ("3", "3", 1)):
            results = []
            for command in (["solve"], ["enumerate"], ["enumerate", "--algo", "ndshd1"]):
                code = main(command + [PATTERN, DATA, "--l", l, "--h", h])
                out = capsys.readouterr().out
                keys = sorted(Mapping.parse(b).canonical_key() for b in out.split("\n\n") if b)
                results.append((code, keys))
            assert results == [(rc, results[0][1])] * 3, (l, h)

    def test_solve_oracle_guard_is_an_error(self, capsys, tmp_path):
        big = tmp_path / "big.graph"
        main(["gen", "random", "--n", "20", "--avg-degree", "2", "--labels", "3",
              "--seed", "1", "--out", str(big)])
        capsys.readouterr()
        rc = main(["solve", PATTERN, str(big), "--l", "1", "--h", "2"])
        assert rc == 2
        assert "brute-force guard" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--oracle"], ["--algo", "ndshd1"]])
    def test_solve_has_no_search_options(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["solve", PATTERN, DATA, "--l", "2", "--h", "2"] + option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGen:
    def test_gen_random_is_byte_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        for out in (a, b):
            assert main(["gen", "random", "--n", "50", "--avg-degree", "3",
                         "--labels", "4", "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        g = load_graph(a)
        assert g.n == 50 and g.is_connected()

    def test_gen_planted_instance_is_satisfiable(self, tmp_path, capsys):
        planted = tmp_path / "planted.graph"
        rc = main(["gen", "planted", "--pattern", PATTERN, "--l", "1", "--h", "3",
                   "--padding", "20", "--seed", "3", "--out", str(planted)])
        assert rc == 0
        capsys.readouterr()
        assert main(["determine", PATTERN, str(planted), "--l", "1", "--h", "3"]) == 0

    def test_gen_invalid_params(self, tmp_path, capsys):
        for avg_degree in ("9", "nan"):
            out = tmp_path / f"x_{avg_degree}.graph"
            rc = main(["gen", "random", "--n", "5", "--avg-degree", avg_degree,
                       "--labels", "2", "--seed", "0", "--out", str(out)])
            assert rc == 2
            assert not out.exists()


class TestBench:
    def test_no_timing_stdout_is_byte_stable(self, tmp_path, capsys):
        spec = {
            "name": "cli_tiny",
            "pattern": {"n1": 3, "m1": 2, "labels": "unique"},
            "data": {"n2": 25, "m2": 3, "labels": 5},
            "l": 1, "h": 2, "algo": "both", "repetitions": 2, "seed_base": 7,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        outs = []
        for step in (1.0, 2.5):
            # a clock that ticks differently in each run, so any time that
            # reaches the output differs between them
            clock = SimpleNamespace(perf_counter=itertools.count(0.0, step).__next__,
                                    monotonic=time.monotonic)
            with mock.patch.object(search, "time", clock):
                rc = main(["bench", str(spec_path), "--out", str(tmp_path / "runs.csv"),
                           "--no-timing"])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("algo")


class TestVerify:
    def test_valid_mapping(self, capsys):
        rc = main(["verify", PATTERN, DATA, MAPPING, "--l", "2", "--h", "2"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_invalid_mapping_reports_reason(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        text = (DATA_DIR / "worked_mapping.txt").read_text()
        bad.write_text(text.replace("p 1 2 : 2 1 8", "p 1 2 : 2 9 8"))
        rc = main(["verify", PATTERN, DATA, str(bad), "--l", "2", "--h", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "independent" in out and "9" in out

    def test_extra_node_map_key_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "extra.txt"
        bad.write_text((DATA_DIR / "worked_mapping.txt").read_text() + "n 99 2\n")
        rc = main(["verify", PATTERN, DATA, str(bad), "--l", "2", "--h", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "not pattern vertices" in out and "99" in out

    def test_truncated_mapping_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "trunc.txt"
        lines = (DATA_DIR / "worked_mapping.txt").read_text().splitlines()
        bad.write_text("\n".join(lines[:4]) + "\n")
        rc = main(["verify", PATTERN, DATA, str(bad), "--l", "2", "--h", "2"])
        assert rc == 2


class TestMappingFormat:
    def test_round_trip(self, worked_mapping):
        again = Mapping.parse(worked_mapping.to_text())
        assert again == worked_mapping

    def test_comments_and_reversed_edges(self):
        text = "# witness\nn 1 4\nn 2 5\np 2 1 : 5 3 4\n"
        m = Mapping.parse(text)
        assert m.node_map == {1: 4, 2: 5}
        assert m.edge_path_map == {(1, 2): (4, 3, 5)}

    def test_parse_errors(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            Mapping.parse("q 1 2\n")
        with pytest.raises(GraphFormatError):
            Mapping.parse("n 1\n")
        with pytest.raises(GraphFormatError, match="twice"):
            Mapping.parse("n 1 2\nn 1 3\n")
        with pytest.raises(GraphFormatError):
            Mapping.parse("p 1 2 : 4\n")
