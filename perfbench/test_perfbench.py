"""Tests of the benchmark itself: each workload passes its checks, and each check catches a corrupted output.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

run.load_program()

from pcindex import _fast, cli, montecarlo  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_brief_run_passes_its_checks(workload):
    result, failures, _ = run.run(workload, seed=5, seconds=0.2, trace=False, setup_samples=1)
    assert result["correct"]
    assert result["attempted"] >= 1
    if workload == "analyze":
        fixed = result["attempted"] // len(inputs.round_inputs(5, 0)) * len(inputs.FIXED)
        assert result["failed"] == fixed
        assert set().union(*failures) == run.KNOWN_FAULT
    else:
        assert result["failed"] == 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["desk", "independent", "analyze"])
def test_traced_run_reports_every_layer_and_restores_the_program(workload):
    originals = (montecarlo.run_experiment, _fast.indices_for_masks, cli.main)
    result, _, _ = run.run(workload, seed=6, seconds=0.2, trace=True)
    assert (montecarlo.run_experiment, _fast.indices_for_masks, cli.main) == originals
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    layers = sum(metrics[layer + ".self_ms_per_unit"] for layer in run.LAYERS)
    assert layers == pytest.approx(metrics["trace.unit_ms"])
    if workload == "analyze":
        assert metrics["graph.build_graph_calls_per_matrix"] == 6
        assert metrics["cli.analyze_ms"] > metrics["indices.all_indices_ms"] > 0
    else:
        searches = {"desk": 15, "independent": 120}[workload]
        assert metrics["montecarlo.bridge_searches_per_chain"] == searches
        assert metrics["fast.tables_mb"] > 1


def test_skeleton_counts_match_the_closed_forms():
    # simple cycles of K7 and simple paths between two vertices of K7
    sk = oracle.skeleton(7)
    assert len(sk.cyc) == 1172
    assert np.bincount(sk.path_pair).tolist() == [326] * 21


# ---------------------------------------------------------------- experiment checks


@pytest.fixture(scope="module")
def desk_unit():
    cfg = run.experiment_config("desk", 7, 0)
    table, chains = run.replay(cfg)
    return cfg, table, chains


def corrupted_table(table, edit):
    d = np.array(table.d)
    totals = np.array(table.totals)
    edit(d, totals)
    return montecarlo.DistanceTable(table.index_names, table.removals_max, d, totals)


def corrupted_chains(chains, edit):
    out = [(lv.copy(), masks.copy(), vals.copy()) for lv, masks, vals in chains]
    edit(out)
    return out


def test_good_unit_passes(desk_unit):
    cfg, table, chains = desk_unit
    assert run.table_failures(table, cfg) == set()
    assert run.chain_failures(cfg, chains, table) == set()
    assert np.array_equal(run.replay(cfg)[0].d, table.d)


@pytest.mark.parametrize(
    "label, edit",
    [
        ("zero_column", lambda d, t: d.__setitem__((3, 0), 1e-3)),
        ("bounded", lambda d, t: d.__setitem__((2, 5), 1.5)),
        ("finite", lambda d, t: d.__setitem__((1, 4), np.nan)),
        ("totals", lambda d, t: t.__setitem__(0, t[0] * 1.01)),
    ],
)
def test_table_check_catches(desk_unit, label, edit):
    cfg, table, _ = desk_unit
    assert label in run.table_failures(corrupted_table(table, edit), cfg)


def test_table_check_catches_a_wrong_shape(desk_unit):
    cfg, table, _ = desk_unit
    short = montecarlo.DistanceTable(table.index_names, 14, table.d[:, :-1], table.totals)
    assert run.table_failures(short, cfg) == {"shape"}


def test_reduction_check_catches_a_table_that_does_not_follow_from_the_rows(desk_unit):
    cfg, table, chains = desk_unit

    def nudge(d, t):
        d[5, 3] += 1e-6
        t[:] = np.abs(d).sum(axis=1)

    assert run.chain_failures(cfg, chains, corrupted_table(table, nudge)) == {"reduction"}


@pytest.mark.parametrize("column", range(len(oracle.INDEX_NAMES)))
@pytest.mark.parametrize("chain", [0, 4])
def test_chain_check_catches_a_wrong_index_column(desk_unit, column, chain):
    cfg, table, chains = desk_unit

    def change(out):
        vals = out[chain][2]
        vals[:, column] = vals[:, column] * 1.001 + 1e-3

    assert oracle.INDEX_NAMES[column] in run.chain_failures(cfg, corrupted_chains(chains, change), table)


def test_chain_check_catches_a_disturbance_outside_its_range(desk_unit):
    cfg, table, chains = desk_unit

    def widen(out):
        out[1][0][0] += 2.0  # d = 2 allows |ln gamma| <= ln 2

    assert "disturbance" in run.chain_failures(cfg, corrupted_chains(chains, widen), table)


def test_chain_check_catches_a_missing_chain(desk_unit):
    cfg, table, chains = desk_unit
    assert run.chain_failures(cfg, chains[:-1], table) == {"chains"}


def test_mask_checks_catch_broken_chains():
    cfg = run.experiment_config("desk", 1, 0)
    n = cfg.n
    pairs = list(zip(*np.triu_indices(n, 1)))
    e = len(pairs)
    good = np.ones((3, e), dtype=bool)
    good[1, 0] = good[2, 0] = good[2, 1] = False
    assert run.mask_failures(n, pairs, good, cfg) == set()
    unnested = good.copy()
    unnested[2] = True
    unnested[2, 2] = unnested[2, 3] = False
    assert "nested" in run.mask_failures(n, pairs, unnested, cfg)
    miscounted = good.copy()
    miscounted[1, 1] = False
    assert "removal_count" in run.mask_failures(n, pairs, miscounted, cfg)
    star_cut = np.ones((1, e), dtype=bool)
    star_cut[0, [s for s, p in enumerate(pairs) if 0 in p]] = False  # vertex 0 isolated
    assert "connected" in run.mask_failures(n, pairs, star_cut, cfg)


# ---------------------------------------------------------------- analyze checks


def analyzed(m, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(m.text)
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli.main(["analyze", str(path), "--json"])
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def round_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyze")
    out = []
    for m in inputs.round_inputs(3, 0):
        code, text = analyzed(m, tmp)
        out.append((m, code, text, oracle.indices(m.n, m.logvals, m.mask)))
    return out


def test_round_outputs_fail_only_the_fixed_matrices(round_outputs):
    for m, code, text, want in round_outputs:
        bad = run.analyze_failures(m, code, text, want)
        assert bad == (run.KNOWN_FAULT if m.fixed else set()), (m.text, bad)


def pick(round_outputs, complete, consistent=False):
    return next(
        r for r in round_outputs if r[0].complete == complete and r[0].consistent == consistent and not r[0].fixed
    )


@pytest.mark.parametrize("name", oracle.INDEX_NAMES)
@pytest.mark.parametrize("consistent", [False, True])
def test_analyze_check_catches_a_wrong_index(round_outputs, name, consistent):
    m, code, text, want = pick(round_outputs, complete=False, consistent=consistent)
    out = json.loads(text)
    out["indices"][name] = out["indices"][name] * 1.001 + 1e-3
    assert name in run.analyze_failures(m, code, json.dumps(out), want)


@pytest.mark.parametrize(
    "label, edit",
    [
        ("json", lambda out: json.dumps(out).replace(json.dumps(out["indices"]["GW"]), "NaN", 1)),
        ("fields", lambda out: json.dumps({**out, "n": out["n"] + 1})),
        ("fields", lambda out: json.dumps({**out, "complete": not out["complete"]})),
        ("reduction", lambda out: json.dumps({**out, "reduction_delta": {**out["reduction_delta"], "CI-CI": 0.01}})),
    ],
)
def test_analyze_check_catches_a_malformed_output(round_outputs, label, edit):
    m, code, text, want = pick(round_outputs, complete=True)
    assert label in run.analyze_failures(m, code, edit(json.loads(text)), want)


def test_analyze_check_catches_a_failed_call(round_outputs):
    m, _code, text, want = pick(round_outputs, complete=True)
    assert run.analyze_failures(m, 2, text, want) == {"exit_code"}


def test_verdict_refuses_failures_other_than_the_known_fault():
    assert run.verdict([set(), {"CI", "Oliva"}], [False, True])
    assert run.verdict([set(), set()], [False, True])
    assert not run.verdict([{"CI"}, set()], [False, True])
    assert not run.verdict([set(), {"CI", "SH"}], [False, True])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-E", "perfbench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
