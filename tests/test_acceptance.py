"""Release gate: one test per acceptance criterion, one printed verdict each.

Every criterion is checked at its stated tolerance; the verdict lines are
echoed again in the terminal summary (see conftest) so a plain ``pytest -v``
run shows all seven outcomes at a glance.  Three behaviour pins follow: the
SHA-256 of the CSV output of the desk run, of a small n=8 run and of a
small run with independent removal sets, so a change that claims to keep
the experiment's output can show it did.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from pcindex import (
    ExperimentConfig,
    all_indices,
    build_graph,
    classical_indices,
    disturb,
    enumerate_cycles,
    enumerate_paths,
    gen_consistent,
    gmm,
    ills,
    least_squares_indices,
    parse_matrix,
    principal_eigen,
    run_experiment,
)
from pcindex._fast import consistent_logvals, get_tables, indices_for_masks
from pcindex.montecarlo import PCMatrix, _chain_masks, distance_csv, totals_csv
from tests.conftest import (
    ACCEPTANCE_LINES,
    TRI3_TEXT,
    brute_cycles,
    brute_paths,
    cycle_inconsistency,
    cycle_vertices,
    list_triads,
    random_pattern,
)

DESK = ExperimentConfig(n=7, base_matrices=200, d_max=30, removals_max=15, seed=20260815)
# nested chains down to a spanning tree on the largest tabulated n
WIDE = ExperimentConfig(n=8, base_matrices=10, d_max=3, removals_max=21, seed=20260815)
# a fresh removal set per k, so the rows do not nest and take the per-row mask route
INDEPENDENT = ExperimentConfig(
    n=7, base_matrices=6, d_max=10, removals_max=15, seed=5, independent_removals=True
)

# SHA-256 of distance_csv + totals_csv, taken with the per-row evaluation of
# every chain row; a mismatch means some printed digit of the output moved
DESK_SHA256 = "9a445474042a5983fd1713b75bfb7b9111ff408f5aa1f049545b5441bf00210f"
WIDE_SHA256 = "81e2cf95e9d79d3daa77aba9e786873039d739fe8eb1bd1e8bf44b14382b6993"
INDEPENDENT_SHA256 = "8f0dd925a6472c7127d9d32debe11843cd8d7cb49ee37766d4e0be40516de4de"


def _report(num, ok, detail):
    line = "ACCEPTANCE %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_runs():
    t0 = time.perf_counter()
    single = run_experiment(DESK, threads=1)
    elapsed = time.perf_counter() - t0
    threaded = run_experiment(DESK, threads=2)
    repeat = run_experiment(DESK, threads=1)
    return single, threaded, repeat, elapsed


def test_criterion_1_consistency_zeroing():
    t0 = time.perf_counter()
    worst = 0.0
    span = math.log(3.0)
    for n in range(4, 9):
        tab = get_tables(n)
        k_max = n * (n - 1) // 2 - (n - 1)
        rng = np.random.default_rng(n)
        for _ in range(100):
            logw = rng.uniform(-span, span, n)
            masks = _chain_masks(n, tab.pairs, k_max, rng, False)
            vals = indices_for_masks(tab, consistent_logvals(tab, logw), masks)
            worst = max(worst, float(np.abs(vals).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 120.0
    _report(
        1,
        ok,
        "all 14 indices on consistent input: max |value| = %.3g (<= 1e-9), "
        "n = 4..8 x 100 matrices x every k, %.1f s (<= 120 s)" % (worst, elapsed),
    )


def test_criterion_2_complete_reductions():
    rng = np.random.default_rng(42)
    pairs = (("CI", "CI"), ("GCI1", "GCI"), ("GW", "GW"), ("RE1", "RE"), ("RE2", "RE"))
    worst_red = 0.0
    worst_w = 0.0
    for i in range(200):
        m = disturb(gen_consistent(7, rng), 2 + i % 9, rng)
        inc = all_indices(m)
        cla = classical_indices(m)
        worst_red = max(worst_red, max(abs(inc[a] - cla[b]) for a, b in pairs))
        worst_w = max(worst_w, float(np.abs(ills(m) - gmm(m)).max()))
    ok = worst_red <= 1e-8 and worst_w <= 1e-9
    _report(
        2,
        ok,
        "200 disturbed 7x7: max reduction gap = %.3g (<= 1e-8), "
        "max |ILLS - GMM| = %.3g (<= 1e-9)" % (worst_red, worst_w),
    )


def test_criterion_3_hand_goldens():
    m = parse_matrix(TRI3_TEXT)
    c = classical_indices(m)
    lam = principal_eigen(m.values).value
    ln2 = math.log(2.0)
    # closed-form targets worked out by hand (see the golden constants in
    # test_indices.py for the derivations)
    checks = [
        ("K", c["K"] == 0.5),
        ("GCI", abs(c["GCI"] - ln2**2 / 3.0) <= 1e-12),
        ("LLS", abs(least_squares_indices(m)["LLS"] - 6.0 * (ln2 / 3.0) ** 2) <= 1e-12),
        ("lambda_max", abs(lam - (1.0 + 2.0 ** (1.0 / 3.0) + 2.0 ** (-1.0 / 3.0))) <= 1e-6),
        ("RE", abs(c["RE"] - 0.020365) <= 1e-5),
        ("ISH", abs(c["ISH"] - 1673.0 / 16380.0) <= 1e-9),
        ("GW", abs(c["GW"] - 0.1344) <= 5e-4),
    ]
    bad = [name for name, good in checks if not good]
    _report(
        3,
        not bad,
        "3x3 goldens (K, GCI, LLS, lambda_max, RE, ISH, GW): "
        + ("all 7 within tolerance" if not bad else "failed: %s" % ", ".join(bad)),
    )


def test_criterion_4_combinatorial_goldens():
    g7 = build_graph(PCMatrix(np.ones((7, 7))))
    n_cycles = len(enumerate_cycles(g7))
    path_counts = {
        len(enumerate_paths(g7, i, j)) for i in range(7) for j in range(7) if i != j
    }
    mismatches = 0
    rng = np.random.default_rng(7)
    cases = [(4, 2), (4, 6), (5, 3), (5, 10), (6, 4), (6, 15)]
    for n, extra in cases:
        defined = random_pattern(rng, n, extra)
        g = build_graph(PCMatrix(np.ones((n, n)), defined))
        if set(cycle_vertices(enumerate_cycles(g))) != brute_cycles(n, defined):
            mismatches += 1
        for i in range(n):
            for j in range(n):
                if i != j and set(enumerate_paths(g, i, j)) != brute_paths(n, defined, i, j):
                    mismatches += 1
    ok = n_cycles == 1172 and path_counts == {326} and mismatches == 0
    _report(
        4,
        ok,
        "complete 7x7: %d cycles (want 1172), per-pair path counts %s (want {326}); "
        "%d brute-force mismatches on %d patterns with n <= 6"
        % (n_cycles, sorted(path_counts), mismatches, len(cases)),
    )


def test_criterion_5_triad_cycle_biconditional():
    rng = np.random.default_rng(11)
    counterexamples = 0
    for i in range(1000):
        n = 4 + i % 2
        m = gen_consistent(n, rng)
        if i % 2 == 0:
            m = disturb(m, (1.001, 2.0, 5.0)[i % 3], rng)
        triad_k = max(cycle_inconsistency(m, t) for t in list_triads(m))
        g = build_graph(m)
        cycle_k = max(cycle_inconsistency(m, c) for c in cycle_vertices(enumerate_cycles(g)))
        if (triad_k > 1e-9) != (cycle_k > 1e-9):
            counterexamples += 1
    _report(
        5,
        counterexamples == 0,
        "max-triad vs max-cycle threshold agreement on 1000 random 4x4/5x5: "
        "%d counterexamples" % counterexamples,
    )


def test_criterion_6_experiment_reproduction(desk_runs):
    tab, _threaded, _repeat, elapsed = desk_runs
    problems = []
    if not (tab.d[:, 0] == 0.0).all():
        problems.append("D(.,0) != 0")
    d15 = tab.d[:, 15]
    if not ((d15 >= 0.92) & (d15 <= 1.00)).all():
        problems.append("D(.,15) range [%.3f, %.3f]" % (d15.min(), d15.max()))
    spots = [
        ("Ktilde", 5, 0.010),
        ("I1", 10, 0.033),
        ("GCI1", 8, 0.516),
        ("CI", 10, 0.618),
        ("Oliva", 12, 0.518),
        ("I2", 5, -0.565),
    ]
    for name, k, want in spots:
        got = tab.value(name, k)
        if abs(got - want) > 0.06 or (got < 0.0) != (want < 0.0):
            problems.append("D(%s,%d) = %.4f vs %.3f" % (name, k, got, want))
    tot = tab.total
    if not all(tot(x) < tot("SH") for x in ("I1", "Ialpha", "Ktilde", "Ialphabeta")):
        problems.append("cycle-mean group not below SH")
    if not all(tot("SH") < tot(x) for x in ("RE2", "GCI2", "Oliva", "GW")):
        problems.append("SH not below RE2/GCI2/Oliva/GW")
    if not all(tot(x) > 4.5 for x in ("LLS", "RE1", "CI", "GCI1")):
        problems.append("heavy group not above 4.5")
    if tab.total("I2") != max(tab.totals):
        problems.append("I2 not largest")
    if elapsed > 900.0:
        problems.append("single-threaded run took %.0f s" % elapsed)
    _report(
        6,
        not problems,
        "desk-scale run (n=7, 200 bases, d<=30, k<=15, seed %d) in %.1f s: "
        % (DESK.seed, elapsed)
        + ("zero row, k=15 band, 6 spot cells, 4 rank groups all good"
           if not problems else "; ".join(problems)),
    )


def test_criterion_7_determinism(desk_runs):
    single, threaded, repeat, _elapsed = desk_runs
    same = (
        distance_csv(single) == distance_csv(threaded) == distance_csv(repeat)
        and totals_csv(single) == totals_csv(threaded) == totals_csv(repeat)
    )
    _report(
        7,
        same,
        "CSV output byte-identical across threads=1, threads=2 and a repeat run"
        if same
        else "CSV output differs between runs",
    )


def _csv_sha256(table):
    return hashlib.sha256((distance_csv(table) + totals_csv(table)).encode()).hexdigest()


def test_desk_csv_pin(desk_runs):
    assert _csv_sha256(desk_runs[0]) == DESK_SHA256


def test_wide_csv_pin():
    assert _csv_sha256(run_experiment(WIDE)) == WIDE_SHA256


def test_independent_csv_pin():
    assert _csv_sha256(run_experiment(INDEPENDENT)) == INDEPENDENT_SHA256
