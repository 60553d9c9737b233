"""End-to-end CLI checks, driven through main(argv) with captured output."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcindex import cli
from pcindex.cli import main
from pcindex.indices import INDEX_NAMES
from pcindex.montecarlo import DistanceTable, ExperimentConfig
from tests.conftest import HUGE4_TEXT, INC4_TEXT, SPARSE7_TEXT, TRI3_TEXT

DISCONNECTED_TEXT = """
4
1 2 ? ?
1/2 1 ? ?
? ? 1 2
? ? 1/2 1
"""

# consistent 3x3 built from weights 0.5, 0.3, 0.2
W532_TEXT = """
3
1 5/3 5/2
3/5 1 3/2
2/5 2/3 1
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _value_lines(out):
    """name -> float for the aligned two-column lines."""
    vals = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                vals[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return vals


def test_analyze_complete_text(tmp_path, capsys):
    path = _write(tmp_path, "tri3.txt", TRI3_TEXT)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "matrix: n=3, complete" in out
    assert "exceed" in out  # the 12 entry is off the 1..9 scale
    assert "classical reference" in out
    vals = _value_lines(out)
    assert vals["Ktilde"] == pytest.approx(0.5, abs=1e-9)  # min(|1-6/12|, |1-12/6|)
    # reduction deltas are printed and all ~0 on a complete matrix
    deltas = [v for k, v in vals.items() if "-" in k]
    assert len(deltas) == 5 and max(abs(d) for d in deltas) < 1e-9


def test_analyze_complete_json(tmp_path, capsys):
    path = _write(tmp_path, "tri3.txt", TRI3_TEXT)
    assert main(["analyze", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3
    assert doc["complete"] is True
    assert doc["exceeds_scale"] is True
    assert len(doc["indices"]) == 14
    assert len(doc["classical"]) == 10
    assert doc["indices"]["CI"] == pytest.approx(doc["classical"]["CI"], abs=1e-12)
    assert set(doc["reduction_delta"]) == {"CI-CI", "GCI1-GCI", "GW-GW", "RE1-RE", "RE2-RE"}
    assert max(abs(v) for v in doc["reduction_delta"].values()) < 1e-9


def test_analyze_incomplete(tmp_path, capsys):
    path = _write(tmp_path, "inc4.txt", INC4_TEXT)
    assert main(["analyze", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is False
    assert "classical" not in doc
    # this matrix is consistently completable, so every index vanishes
    assert max(abs(v) for v in doc["indices"].values()) < 1e-9


def test_analyze_incomplete_text(tmp_path, capsys):
    path = _write(tmp_path, "sparse7.txt", SPARSE7_TEXT)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "incomplete" in out
    assert "classical reference" not in out
    vals = _value_lines(out)
    assert 0.9 < vals["Ktilde"] < 1.0


def test_analyze_subset_keeps_canonical_order(tmp_path, capsys):
    path = _write(tmp_path, "tri3.txt", TRI3_TEXT)
    assert main(["analyze", path, "--indices", "I1,Ktilde"]) == 0
    out = capsys.readouterr().out
    vals = _value_lines(out)
    assert set(vals) >= {"Ktilde", "I1"}
    assert "GCI1" not in vals
    assert out.index("Ktilde") < out.index("I1")


def test_analyze_unknown_index_name(tmp_path, capsys):
    path = _write(tmp_path, "tri3.txt", TRI3_TEXT)
    assert main(["analyze", path, "--indices", "Ktilde,Bogus"]) == 5
    assert "Bogus" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_analyze_empty_index_selection(tmp_path, capsys, extra):
    path = _write(tmp_path, "tri3.txt", TRI3_TEXT)
    assert main(["analyze", path, "--indices", ","] + extra) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def _graph_text(n, edges):
    """Matrix file with c_ij = 2 on each edge (i, j) and every other pair missing."""
    rows = [["1" if i == j else "?" for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j], rows[j][i] = "2", "1/2"
    return "%d\n%s\n" % (n, "\n".join(" ".join(r) for r in rows))


def test_analyze_beyond_n8_path_graph(tmp_path, capsys):
    # no cycle and one path per pair: the enumeration limits count work, not n
    path = _write(tmp_path, "path9.txt", _graph_text(9, [(i, i + 1) for i in range(8)]))
    assert main(["analyze", path, "--json"]) == 0
    vals = json.loads(capsys.readouterr().out)["indices"]
    for k in ("Ktilde", "I1", "I2", "Ialpha", "Ialphabeta", "SH"):
        assert vals[k] == 0.0, k


@pytest.mark.parametrize("diamonds", [12, 30])
def test_analyze_diamond_chain_refused(tmp_path, capsys, diamonds):
    # diamonds in series: one cycle each, but 2^diamonds ways through the chain
    edges = []
    for a in range(0, 3 * diamonds, 3):
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    path = _write(tmp_path, "diamonds.txt", _graph_text(3 * diamonds + 1, edges))
    assert main(["analyze", path]) == 2
    assert "exceeded 16064 steps" in capsys.readouterr().err


def test_analyze_long_path_graph_refused(tmp_path, capsys):
    # no cycle, but 1500 * 1499 / 2 steps to find that out, and deeper than recursion goes
    path = _write(tmp_path, "path1500.txt", _graph_text(1500, [(i, i + 1) for i in range(1499)]))
    assert main(["analyze", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeded 16064 steps" in captured.err


def test_analyze_bad_alpha(tmp_path, capsys):
    path = _write(tmp_path, "tri3.txt", TRI3_TEXT)
    bad = (("--alpha", ("1.5", "nan", "inf")), ("--beta", ("nan", "inf", "1.0", "0.5000001")))
    good = (("--alpha", ("-0.0", "0.5", "0.5000001", "1.0")), ("--beta", ("-0.0", "0.5")))
    for flag, values in bad:
        for value in values:
            assert main(["analyze", path, flag, value]) == 5, (flag, value)
            captured = capsys.readouterr()
            assert captured.err.startswith("error:")
            assert captured.out == ""
    for flag, values in good:
        for value in values:
            assert main(["analyze", path, flag, value]) == 0, (flag, value)


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_analyze_non_finite_index_fails(tmp_path, capsys, extra):
    path = _write(tmp_path, "huge4.txt", HUGE4_TEXT)
    with np.errstate(all="ignore"):
        assert main(["analyze", path] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # SH still overflows there; the least-squares family is finite
    assert captured.err == "error: non-finite index value(s): SH\n"


def test_analyze_disconnected(tmp_path, capsys):
    path = _write(tmp_path, "disc.txt", DISCONNECTED_TEXT)
    assert main(["analyze", path]) == 3
    assert "error: matrix is not irreducible" in capsys.readouterr().err


def test_analyze_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "3\n1 2 3\n1/2 1 oops\n1/3 1 1\n")
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("method", ["evm", "gmm", "harker", "ills"])
def test_rank_consistent(tmp_path, capsys, method):
    path = _write(tmp_path, "w532.txt", W532_TEXT)
    assert main(["rank", path, "--method", method]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1 0.500000", "2 0.300000", "3 0.200000"]


@pytest.mark.parametrize("method", ["evm", "gmm"])
def test_rank_complete_only_methods(tmp_path, capsys, method):
    path = _write(tmp_path, "inc4.txt", INC4_TEXT)
    assert main(["rank", path, "--method", method]) == 4
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("method", ["harker", "ills"])
def test_rank_incomplete(tmp_path, capsys, method):
    path = _write(tmp_path, "inc4.txt", INC4_TEXT)
    assert main(["rank", path, "--method", method]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = {int(a): float(b) for a, b in (ln.split() for ln in lines)}
    # hidden weights 1, 3/2, 3/4, 2 normalised to sum 1
    w = np.array([1.0, 1.5, 0.75, 2.0]) / 5.25
    for crit, val in got.items():
        assert val == pytest.approx(w[crit - 1], abs=5e-7)
    assert [int(ln.split()[0]) for ln in lines] == [4, 2, 1, 3]  # descending weight


def test_rank_disconnected(tmp_path, capsys):
    path = _write(tmp_path, "disc.txt", DISCONNECTED_TEXT)
    assert main(["rank", path, "--method", "harker"]) == 3
    capsys.readouterr()


EXP_ARGS = ["--n", "5", "--matrices", "2", "--dmax", "2", "--removals", "4", "--seed", "7"]


def test_experiment_writes_csvs(tmp_path, capsys):
    prefix = str(tmp_path / "exp")
    assert main(["experiment", *EXP_ARGS, "--out", prefix]) == 0
    out = capsys.readouterr().out
    dist = tmp_path / "exp_distance.csv"
    tot = tmp_path / "exp_totals.csv"
    assert dist.exists() and tot.exists()
    assert ("wrote %s" % dist) in out
    assert "ranking by total distance" in out
    assert len([ln for ln in out.splitlines() if ". " in ln]) == 14
    lines = dist.read_text().splitlines()
    assert lines[0] == "index,k,D"
    assert len(lines) == 1 + 14 * 5
    assert tot.read_text().splitlines()[0] == "index,total"


def test_experiment_thread_count_is_invisible(tmp_path, capsys):
    p1 = str(tmp_path / "a")
    p2 = str(tmp_path / "b")
    assert main(["experiment", *EXP_ARGS, "--out", p1, "--threads", "1"]) == 0
    assert main(["experiment", *EXP_ARGS, "--out", p2, "--threads", "2"]) == 0
    capsys.readouterr()
    for suffix in ("_distance.csv", "_totals.csv"):
        a = (tmp_path / ("a" + suffix)).read_bytes()
        b = (tmp_path / ("b" + suffix)).read_bytes()
        assert a == b


def test_experiment_too_many_removals(tmp_path, capsys):
    args = ["experiment", "--n", "7", "--matrices", "1", "--removals", "20",
            "--out", str(tmp_path / "x")]
    assert main(args) == 5
    assert capsys.readouterr().err.startswith("error:")


def test_experiment_bad_threads(tmp_path, capsys):
    args = ["experiment", *EXP_ARGS, "--threads", "0", "--out", str(tmp_path / "x")]
    assert main(args) == 5
    assert capsys.readouterr().err.startswith("error:")


def test_experiment_defaults_are_the_config_defaults(tmp_path, capsys, monkeypatch):
    seen = {}

    def fake_run(cfg, threads):
        seen.update(cfg=cfg, threads=threads)
        count = len(INDEX_NAMES)
        return DistanceTable(INDEX_NAMES, 0, np.zeros((count, 1)), np.zeros(count))

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert main(["experiment", "--out", str(tmp_path / "x")]) == 0
    capsys.readouterr()
    assert seen == {"cfg": ExperimentConfig(), "threads": 1}


def test_experiment_unwritable_out(tmp_path, capsys):
    args = ["experiment", *EXP_ARGS, "--out", str(tmp_path / "no" / "dir" / "x")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_experiment_missing_out_dir_refused_before_the_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, threads: runs.append(cfg))
    for out in (tmp_path / "no" / "dir" / "x", tmp_path / "file.txt" / "x"):
        (tmp_path / "file.txt").write_text("", encoding="utf-8")
        assert main(["experiment", *EXP_ARGS, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output directory ") and "does not exist" in err
    assert runs == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]


def _no_files_and_no_traceback(tmp_path, capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_experiment_weight_range_overflow(tmp_path, capsys):
    args = ["experiment", "--n", "5", "--matrices", "3", "--dmax", "2", "--removals", "3",
            "--weight-range", "1e200", "--out", str(tmp_path / "x")]
    assert main(args) == 5
    _no_files_and_no_traceback(tmp_path, capsys)


def test_experiment_weight_range_just_inside_bound(tmp_path, capsys):
    # weight_range**4 * d_max**(2*(n-1)) just below the largest float
    n, d = 5, 2
    edge = math.exp((math.log(sys.float_info.max) / 2.0 - (n - 1) * math.log(d)) / 2.0)
    prefix = str(tmp_path / "x")
    args = ["experiment", "--n", str(n), "--matrices", "3", "--dmax", str(d), "--removals", "3",
            "--weight-range", repr(edge * 0.9999), "--out", prefix]
    assert main(args) == 0
    capsys.readouterr()
    for suffix, column in (("_distance.csv", 2), ("_totals.csv", 1)):
        rows = (tmp_path / ("x" + suffix)).read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(r.split(",")[column])) for r in rows)
    assert main(args[:-4] + ["--weight-range", repr(edge), "--out", prefix + "_edge"]) == 5
    capsys.readouterr()


def test_experiment_n_beyond_tables(tmp_path, capsys):
    args = ["experiment", "--n", "9", "--matrices", "1", "--dmax", "1", "--removals", "1",
            "--out", str(tmp_path / "x")]
    assert main(args) == 5
    _no_files_and_no_traceback(tmp_path, capsys)


def test_cli_import_leaves_process_pool_unloaded():
    # only a multi-worker experiment needs the pool and multiprocessing
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys; import pcindex.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
