"""Inconsistency indices, classical and incomplete-capable.

Each family is checked against straight-line reference computations
written out longhand in this file (loops over formulas, no shared code
with the library beyond the matrix type), plus frozen hand-derived
constants for the 3x3 fixture.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from pcindex import (
    CLASSICAL_NAMES,
    INDEX_NAMES,
    BadParams,
    CycleCapExceeded,
    NotComplete,
    NotIrreducible,
    PCMatrix,
    all_indices,
    blend,
    build_graph,
    check_blend,
    classical_indices,
    cycle_based_indices,
    disturb,
    enumerate_cycles,
    enumerate_paths,
    gen_consistent,
    gmm,
    harker_ci,
    ills,
    least_squares_indices,
    oliva_index,
    parse_matrix,
    remove_comparisons,
    sh_index_inc,
)
from tests.conftest import HUGE4_TEXT, path_product, random_complete

LN2 = math.log(2.0)
# frozen hand oracles for the 3x3 fixture [[1,2,12],[1/2,1,3],[1/12,1/3,1]]
TRI3_LAMBDA = 1.0 + 2.0 ** (1.0 / 3.0) + 2.0 ** (-1.0 / 3.0)
TRI3_GCI = LN2**2 / 3.0
TRI3_LLS = 2.0 * LN2**2 / 3.0
TRI3_ISH = 1673.0 / 16380.0  # exact fraction worked out by hand (= 239/2340)
TRI3_GW = 0.13436494503858539  # frozen from an exact symbolic evaluation


def ref_classical(m, alpha=0.5, beta=0.3):
    """Longhand reference for the ten classical indices (complete input)."""
    n = m.n
    v = m.values
    w = gmm(m)
    lam = np.sort(np.linalg.eigvals(v).real)[-1]
    ci = (lam - n) / (n - 1)

    ks = []
    for i, k, j in combinations(range(n), 3):
        r = v[i, k] * v[k, j] / v[i, j]
        ks.append(min(abs(1 - r), abs(1 - 1 / r)))
    kmax = max(ks)
    i1 = sum(ks) / len(ks)
    i2 = math.sqrt(sum(x * x for x in ks)) / len(ks)

    gci = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            gci += math.log(v[i, j] * w[j] / w[i]) ** 2
    gci *= 2.0 / ((n - 1) * (n - 2))

    gw = 0.0
    for j in range(n):
        col = v[:, j].sum()
        for i in range(n):
            gw += abs(v[i, j] / col - w[i])
    gw /= n

    ish = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            prods = [v[i, k] * v[k, j] for k in range(n)]
            hi, lo = max(prods), min(prods)
            ish += (hi - lo) / ((1 + hi) * (1 + lo))
    ish *= 2.0 / (n * (n - 1))

    chat = np.log(v)
    delta = chat.mean(axis=1)
    num = den = 0.0
    for i in range(n):
        for j in range(n):
            num += (chat[i, j] - (delta[i] - delta[j])) ** 2
            den += chat[i, j] ** 2
    re = num / den if den > 0 else 0.0

    return {
        "CI": ci,
        "GCI": gci,
        "K": kmax,
        "I1": i1,
        "I2": i2,
        "Ialpha": alpha * kmax + (1 - alpha) * i1,
        "Ialphabeta": beta * kmax + beta * i1 + (1 - 2 * beta) * i2,
        "GW": gw,
        "ISH": ish,
        "RE": re,
    }


def test_classical_tri3_hand_constants(tri3):
    c = classical_indices(tri3)
    assert set(c) == set(CLASSICAL_NAMES)
    assert c["K"] == 0.5
    assert c["I1"] == 0.5 and c["I2"] == 0.5
    assert c["Ialpha"] == 0.5 and c["Ialphabeta"] == pytest.approx(0.5, abs=1e-15)
    assert c["CI"] == pytest.approx((TRI3_LAMBDA - 3) / 2, abs=1e-10)
    assert c["GCI"] == pytest.approx(TRI3_GCI, abs=1e-12)
    assert c["ISH"] == pytest.approx(TRI3_ISH, abs=1e-12)
    assert c["GW"] == pytest.approx(TRI3_GW, abs=1e-12)
    # RE for this fixture: residual energy ratio with row-mean fit
    s = LN2**2 / 3.0
    den = 2 * (math.log(2) ** 2 + math.log(12) ** 2 + math.log(3) ** 2)
    assert c["RE"] == pytest.approx(2 * s / den, abs=1e-12)


def test_classical_matches_longhand_reference():
    rng = np.random.default_rng(31)
    for n in (3, 4, 5, 6):
        m = random_complete(rng, n)
        got = classical_indices(m)
        want = ref_classical(m)
        for name in CLASSICAL_NAMES:
            assert got[name] == pytest.approx(want[name], rel=1e-9, abs=1e-12), name


def test_classical_needs_complete(inc4):
    with pytest.raises(NotComplete):
        classical_indices(inc4)


def test_cycle_based_tri3(tri3):
    c = cycle_based_indices(tri3)
    assert (c.ktilde, c.i1, c.i2) == (0.5, 0.5, 0.5)


def _walk_cases(sparse7):
    """sparse7, a complete 8x8, and a 7x7 ring with chords whose cycles have every length 3..7."""
    rng = np.random.default_rng(29)
    full8 = random_complete(rng, 8)
    ring = np.eye(7, dtype=bool)
    for i, j in [(k, (k + 1) % 7) for k in range(7)] + [(0, 2), (0, 3)]:
        ring[i, j] = ring[j, i] = True
    ring7 = PCMatrix(np.where(ring, random_complete(rng, 7).values, 1.0), ring)
    return [sparse7, full8, ring7]


def test_cycle_based_longhand(sparse7):
    lengths = []
    for m in _walk_cases(sparse7):
        g = build_graph(m)
        cycles = enumerate_cycles(g)
        lengths.append({len(c.vertices) for c in cycles})
        ks = []
        for cyc in cycles:
            vs = list(cyc.vertices) + [cyc.vertices[0]]
            r = 1.0
            for a, b in zip(vs, vs[1:]):
                r *= m[a, b]
            ks.append(min(abs(1 - r), abs(1 - 1 / r)))
        got = cycle_based_indices(m)
        assert got.ktilde == pytest.approx(max(ks), rel=1e-12)
        assert got.i1 == pytest.approx(sum(ks) / len(ks), rel=1e-12)
        assert got.i2 == pytest.approx(
            math.sqrt(sum(x * x for x in ks)) / len(ks), rel=1e-12
        )
    assert lengths[1:] == [set(range(3, 9)), set(range(3, 8))]
    assert cycle_based_indices(sparse7).ktilde >= 19.0 / 21.0 - 1e-12


def test_cycle_based_huge_consistent_is_zero():
    # the cycle products overflow, their sums of log-entries do not
    assert cycle_based_indices(parse_matrix(HUGE4_TEXT)) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("transpose", [False, True])
def test_least_squares_huge_consistent_is_zero(transpose):
    # the weights span 1e-450..1; the fit comes from the log-weights, not their exp
    m = parse_matrix(HUGE4_TEXT)
    if transpose:
        m = PCMatrix(m.values.T, m.defined.T)
    vals = least_squares_indices(m)
    for name in ("GCI1", "GCI2", "RE1", "RE2", "LLS"):
        assert 0.0 <= vals[name] < 1e-20, name


def test_cycle_based_tree_is_zero():
    rng = np.random.default_rng(8)
    tree = remove_comparisons(random_complete(rng, 6), 10, rng)
    assert cycle_based_indices(tree) == (0.0, 0.0, 0.0)


def test_cycle_based_ordering_property():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = disturb(gen_consistent(6, rng), 9, rng)
        m = remove_comparisons(m, int(rng.integers(0, 11)), rng)
        c = cycle_based_indices(m)
        assert 0.0 <= c.i2 <= c.i1 <= c.ktilde < 1.0


def test_cycle_based_respects_cap():
    m = PCMatrix(np.ones((9, 9)))
    with pytest.raises(CycleCapExceeded):
        cycle_based_indices(m)
    c = cycle_based_indices(m, max_cycles=10**6)
    assert c == (0.0, 0.0, 0.0)


def test_blend_indices_defaults_and_literal():
    vals = (0.9, 0.5, 0.3)
    ia, iab = blend(*vals)
    assert ia == pytest.approx(0.5 * 0.9 + 0.5 * 0.5, rel=1e-15)
    assert iab == pytest.approx(0.3 * 0.9 + 0.3 * 0.5 + 0.4 * 0.3, rel=1e-15)
    ia, iab = blend(*vals, 0.2, 0.1)
    assert ia == pytest.approx(0.2 * 0.9 + 0.8 * 0.5, rel=1e-15)
    assert iab == pytest.approx(0.1 * 0.9 + 0.1 * 0.5 + 0.8 * 0.3, rel=1e-15)
    ia, iab = blend(*vals, 1.0, 0.5)  # beta = 1/2 leaves I2 out
    assert (ia, iab) == (0.9, 0.5 * 0.9 + 0.5 * 0.5)
    arrays = blend(np.array([0.9, 0.4]), np.array([0.5, 0.2]), np.array([0.3, 0.1]))
    assert arrays[0].tolist() == [blend(0.9, 0.5, 0.3)[0], blend(0.4, 0.2, 0.1)[0]]
    assert arrays[1].tolist() == [blend(0.9, 0.5, 0.3)[1], blend(0.4, 0.2, 0.1)[1]]


def test_blend_params_validation():
    check_blend(0.0, 0.0)
    check_blend(1.0, 0.5)
    nan = float("nan")
    for alpha, beta in ((-0.1, 0.3), (1.1, 0.3), (0.5, -0.2), (0.5, 0.6), (nan, 0.3), (0.5, nan)):
        with pytest.raises(BadParams):
            check_blend(alpha, beta)


def test_sh_inc_tri3_equals_classical(tri3):
    # for n = 3 the one-intermediary products and the simple paths coincide
    assert sh_index_inc(tri3) == pytest.approx(TRI3_ISH, abs=1e-12)


def test_sh_inc_longhand(inc4, sparse7):
    for m in [inc4] + _walk_cases(sparse7):
        g = build_graph(m)
        total = 0.0
        for i in range(m.n):
            for j in range(i + 1, m.n):
                prods = [path_product(m, p) for p in enumerate_paths(g, i, j)]
                hi, lo = max(prods), min(prods)
                total += (hi - lo) / ((1 + hi) * (1 + lo))
        want = 2.0 * total / (m.n * (m.n - 1))
        assert sh_index_inc(m) == pytest.approx(want, rel=1e-12)


def test_sh_inc_dominates_classical_on_complete():
    # longer paths can only widen the min/max range of the products
    rng = np.random.default_rng(23)
    for _ in range(5):
        m = random_complete(rng, 5)
        assert sh_index_inc(m) >= classical_indices(m)["ISH"] - 1e-12


def test_gci_inc_variants(tri3, inc4):
    vals = least_squares_indices(tri3)
    assert vals["GCI1"] == pytest.approx(TRI3_GCI, abs=1e-12)
    # n=3: 3 pairs vs (n-1)(n-2)/2=1
    assert vals["GCI2"] == pytest.approx(TRI3_GCI / 3.0, abs=1e-12)
    assert least_squares_indices(inc4)["GCI1"] == pytest.approx(0.0, abs=1e-12)


def test_gci_inc_longhand():
    rng = np.random.default_rng(77)
    m = remove_comparisons(disturb(gen_consistent(6, rng), 5, rng), 4, rng)
    w = ills(m)
    s = 0.0
    cnt = 0
    for i in range(6):
        for j in range(i + 1, 6):
            if m.defined[i, j]:
                s += math.log(m[i, j] * w[j] / w[i]) ** 2
                cnt += 1
    vals = least_squares_indices(m)
    assert vals["GCI1"] == pytest.approx(2 * s / 20.0, rel=1e-9)
    assert vals["GCI2"] == pytest.approx(s / cnt, rel=1e-9)
    assert vals["LLS"] == pytest.approx(2 * s, rel=1e-9)


def test_gw_inc_longhand(inc4):
    rng = np.random.default_rng(13)
    m = remove_comparisons(disturb(gen_consistent(5, rng), 7, rng), 3, rng)
    w = ills(m)
    n = m.n
    total = 0.0
    for j in range(n):
        csum = sum(m[i, j] for i in range(n) if m.defined[i, j])
        osum = sum(w[i] for i in range(n) if m.defined[i, j])
        for i in range(n):
            if m.defined[i, j]:
                total += abs(m[i, j] / csum - w[i] / osum)
    assert least_squares_indices(m)["GW"] == pytest.approx(total / n, rel=1e-9)
    assert least_squares_indices(inc4)["GW"] == pytest.approx(0.0, abs=1e-12)


def test_re_inc_longhand(inc4):
    rng = np.random.default_rng(29)
    m = remove_comparisons(disturb(gen_consistent(5, rng), 4, rng), 4, rng)
    w = ills(m)
    x = np.log(w)
    num = den = miss = 0.0
    for i in range(5):
        for j in range(i + 1, 5):
            if m.defined[i, j]:
                num += (math.log(m[i, j]) - (x[i] - x[j])) ** 2
                den += math.log(m[i, j]) ** 2
            else:
                miss += (x[i] - x[j]) ** 2
    vals = least_squares_indices(m)
    assert vals["RE1"] == pytest.approx(num / (den + miss), rel=1e-9)
    assert vals["RE2"] == pytest.approx(num / den, rel=1e-9)
    vals = least_squares_indices(inc4)
    assert vals["RE1"] == pytest.approx(0.0, abs=1e-12)
    assert vals["RE2"] == pytest.approx(0.0, abs=1e-12)


def test_re_inc_all_ones_convention():
    # every defined entry 1: zero residual over zero energy is defined as 0
    vals = least_squares_indices(PCMatrix(np.ones((4, 4))))
    assert vals["RE1"] == 0.0
    assert vals["RE2"] == 0.0


def test_harker_ci_and_oliva(tri3, inc4):
    c = classical_indices(tri3)
    assert harker_ci(tri3) == pytest.approx(c["CI"], abs=1e-10)
    assert oliva_index(tri3) == pytest.approx(c["CI"], abs=1e-10)
    assert harker_ci(inc4) == pytest.approx(0.0, abs=1e-9)
    assert oliva_index(inc4) == pytest.approx(0.0, abs=1e-9)


def test_oliva_longhand(sparse7):
    n = sparse7.n
    s = np.where(sparse7.defined, np.nan_to_num(sparse7.values), 0.0) - np.eye(n)
    deg = sparse7.defined.sum(axis=1) - 1
    a = s / deg[:, None]
    rho = np.abs(np.linalg.eigvals(a)).max()
    assert oliva_index(sparse7) == pytest.approx(rho - 1.0, rel=1e-9)


def test_incomplete_indices_need_connected(disconnected4):
    for fn in (
        cycle_based_indices,
        sh_index_inc,
        least_squares_indices,
        harker_ci,
        oliva_index,
        all_indices,
    ):
        with pytest.raises(NotIrreducible):
            fn(disconnected4)


def test_all_indices_matches_individual(tri3, inc4, sparse7):
    for m in (tri3, inc4, sparse7):
        vals = all_indices(m)
        assert list(vals) == list(INDEX_NAMES)
        cyc = cycle_based_indices(m)
        assert vals["Ktilde"] == cyc.ktilde
        assert vals["I1"] == cyc.i1
        assert vals["I2"] == cyc.i2
        assert (vals["Ialpha"], vals["Ialphabeta"]) == blend(*cyc)
        assert vals["SH"] == sh_index_inc(m)
        for k, v in least_squares_indices(m).items():
            assert vals[k] == v
        assert vals["CI"] == harker_ci(m)
        assert vals["Oliva"] == oliva_index(m)


def test_all_indices_blend_knobs(sparse7):
    vals = all_indices(sparse7, alpha=0.8, beta=0.1)
    c = cycle_based_indices(sparse7)
    assert vals["Ialpha"] == pytest.approx(0.8 * c.ktilde + 0.2 * c.i1, rel=1e-12)
    assert vals["Ialphabeta"] == pytest.approx(
        0.1 * c.ktilde + 0.1 * c.i1 + 0.8 * c.i2, rel=1e-12
    )
    for alpha in (-0.0, 0.5, 0.5000001, 1.0):
        assert all_indices(sparse7, alpha=alpha)["Ialpha"] == blend(*c, alpha)[0]
    for beta in (-0.0, 0.5):
        assert all_indices(sparse7, beta=beta)["Ialphabeta"] == blend(*c, 0.5, beta)[1]
    for alpha in (1.3, -0.1, float("nan"), float("inf")):
        with pytest.raises(BadParams):
            all_indices(sparse7, alpha=alpha)
    # beta above 1/2 would give I2 the negative weight 1 - 2*beta
    for beta in (0.6, 1.0, 0.5000001, -0.1, float("nan"), float("inf")):
        with pytest.raises(BadParams):
            all_indices(sparse7, beta=beta)


def test_lls_equals_scaled_gci1():
    # the optimal-completion least-squares value is exactly the v1
    # normalization times (n-1)(n-2): same residuals, different constant
    rng = np.random.default_rng(55)
    for n in (4, 6):
        m = remove_comparisons(disturb(gen_consistent(n, rng), 6, rng), 2, rng)
        vals = least_squares_indices(m)
        assert vals["LLS"] == pytest.approx((n - 1) * (n - 2) * vals["GCI1"], rel=1e-12)


def test_complete_reductions_quick():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = disturb(gen_consistent(7, rng), 8, rng)
        c = classical_indices(m)
        assert harker_ci(m) == pytest.approx(c["CI"], abs=1e-8)
        vals = least_squares_indices(m)
        assert vals["GCI1"] == pytest.approx(c["GCI"], abs=1e-8)
        assert vals["GW"] == pytest.approx(c["GW"], abs=1e-8)
        assert vals["RE1"] == pytest.approx(c["RE"], abs=1e-8)
        assert vals["RE2"] == pytest.approx(c["RE"], abs=1e-8)


def test_consistency_zeroing_public_route():
    rng = np.random.default_rng(44)
    for n in (4, 5, 6):
        spare = n * (n - 1) // 2 - (n - 1)
        m = gen_consistent(n, rng)
        for k in range(spare + 1):
            mk = remove_comparisons(m, k, rng)
            vals = all_indices(mk)
            assert max(abs(v) for v in vals.values()) <= 1e-9, (n, k)


def test_triad_vs_cycle_biconditional_quick():
    rng = np.random.default_rng(66)
    for _ in range(25):
        if rng.integers(2):
            m = disturb(gen_consistent(4, rng), 6, rng)
        else:
            m = gen_consistent(4, rng)
        triad_bad = classical_indices(m)["K"] > 1e-9
        cycle_bad = cycle_based_indices(m).ktilde > 1e-9
        assert triad_bad == cycle_bad
