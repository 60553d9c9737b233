"""Priority derivation methods."""

import numpy as np
import pytest

import pcindex.priority
from pcindex import (
    NotComplete,
    NotConverged,
    NotIrreducible,
    PCMatrix,
    ReducibleInput,
    SingularSystem,
    evm,
    gen_consistent,
    gmm,
    harker_matrix,
    harker_rank,
    ills,
    parse_matrix,
    principal_eigen,
    remove_comparisons,
)
from tests.conftest import HUGE4_TEXT, power_iteration_by_step, random_complete

# closed-form principal pair of the 3x3 fixture: lambda = 1 + 2^(1/3) + 2^(-1/3),
# weights proportional to (24^(1/3), (3/2)^(1/3), (1/36)^(1/3))
TRI3_LAMBDA = 1.0 + 2.0 ** (1.0 / 3.0) + 2.0 ** (-1.0 / 3.0)
TRI3_W = np.array([24.0, 1.5, 1.0 / 36.0]) ** (1.0 / 3.0)
TRI3_W = TRI3_W / TRI3_W.sum()

# weights 10**e of the benchmark's two fixed consistent 6x6 analyze inputs,
# whose small weight components the stopping rule leaves unconverged
FIXED6_EXPONENTS = (
    (1.95, 7.82, -4.56, -5.44, 1.80, -7.30),
    (-7.92, 5.14, 4.75, -0.51, -3.15, -3.55),
)


def _oliva_matrix(m):
    """D^-1 (C - I) as oliva_index hands it to principal_eigen: missing entries 0, rows over their degrees."""
    s = np.where(m.defined, m.values, 0.0) - np.eye(m.n)
    return s / (m.defined.sum(axis=1) - 1.0)[:, None]


def _spectral_inputs():
    """(label, matrix) pairs of the kinds the spectral indices hand to principal_eigen."""
    rng = np.random.default_rng(24)
    out = []
    for n in range(3, 9):
        spare = (n - 1) * (n - 2) // 2
        for _ in range(3):
            full = random_complete(rng, n)
            out += [("complete n=%d" % n, full.values), ("Oliva complete n=%d" % n, _oliva_matrix(full))]
            for k, kind in ((int(rng.integers(1, spare + 1)), "incomplete"), (spare, "tree")):
                m = remove_comparisons(full, k, rng)
                out += [
                    ("Harker %s n=%d" % (kind, n), harker_matrix(m)),
                    ("Oliva %s n=%d" % (kind, n), _oliva_matrix(m)),
                ]
    for exponents in FIXED6_EXPONENTS:
        w = [10.0**e for e in exponents]  # the benchmark's arithmetic, so its entries to the bit
        m = PCMatrix([[a / b for b in w] for a in w])
        out += [("fixed 6x6", m.values), ("Oliva fixed 6x6", _oliva_matrix(m))]
    return out


def test_principal_eigen_symmetric_known():
    res = principal_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert res.value == pytest.approx(3.0, abs=1e-10)
    assert res.vector == pytest.approx([0.5, 0.5], abs=1e-10)


def test_principal_eigen_tri3(tri3):
    res = principal_eigen(tri3.values)
    assert res.value == pytest.approx(TRI3_LAMBDA, abs=1e-9)
    assert res.vector == pytest.approx(TRI3_W, abs=1e-9)
    assert res.vector.sum() == pytest.approx(1.0, abs=1e-12)


def test_principal_eigen_validates_input():
    with pytest.raises(ValueError):
        principal_eigen(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonempty"):
        principal_eigen(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        principal_eigen(np.array([[1.0, -1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        principal_eigen(np.array([[1.0, np.nan], [1.0, 1.0]]))
    with pytest.raises(ReducibleInput):
        principal_eigen(np.array([[1.0, 0.0], [0.0, 1.0]]))
    # reducible even though every row has some mass
    with pytest.raises(ReducibleInput):
        principal_eigen(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_principal_eigen_not_converged(tri3):
    with pytest.raises(NotConverged):
        principal_eigen(tri3.values, max_iter=2)


@pytest.mark.parametrize("bad", [0, -1, True, False, np.bool_(True), 2.5, 8.0, "8", None, np.int64(0)])
def test_principal_eigen_refuses_a_bad_budget(bad):
    # refused before the matrix is looked at, so not even shape errors come first
    for a in (np.ones((3, 3)), np.ones((2, 3))):
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            principal_eigen(a, max_iter=bad)


def test_principal_eigen_takes_numpy_integer_budgets(tri3):
    want = principal_eigen(tri3.values)
    for budget in (np.int64(200), np.int32(200), np.uint8(200)):
        got = principal_eigen(tri3.values, max_iter=budget)
        assert got.value == want.value and got.vector.tobytes() == want.vector.tobytes()


def test_principal_eigen_equals_the_per_step_loop():
    for label, a in _spectral_inputs():
        want = power_iteration_by_step(a, pcindex.priority.EIGEN_MAX_ITER)
        got = principal_eigen(a)
        assert np.float64(got.value).tobytes() == np.float64(want[0]).tobytes(), label
        assert got.vector.dtype == want[1].dtype and got.vector.tobytes() == want[1].tobytes(), label


def test_principal_eigen_equals_the_per_step_loop_at_every_budget(tri3):
    block = pcindex.priority._EIGEN_BLOCK
    rng = np.random.default_rng(8)
    # scaling a consistent matrix up shortens the iteration: from 22 steps
    # (n=3) down to 1 (the uniform vector is the 2x2's eigenvector)
    mats = [np.array([[2.0, 1.0], [1.0, 2.0]]), tri3.values]
    mats += [gen_consistent(n, rng).values for n in range(3, 9)]
    mats += [gen_consistent(4, rng).values * c for c in (2.0, 5.0, 10.0, 20.0, 30.0, 100.0, 1000.0)]
    stops = set()
    for a in mats:
        stop = None
        for budget in range(1, 3 * block + 1):
            try:
                want = power_iteration_by_step(a, budget)
            except NotConverged as exc:
                with pytest.raises(NotConverged) as got:
                    principal_eigen(a, max_iter=budget)
                assert str(got.value) == str(exc)
                continue
            got = principal_eigen(a, max_iter=budget)
            assert got.value == want[0] and got.vector.tobytes() == want[1].tobytes()
            stop = budget if stop is None else stop
        stops.add(stop)
    # the first converging budget is the stopping step: on, just past and inside blocks
    assert {1, block - 1, block, block + 1, 2 * block, 2 * block + 1} <= stops


def test_principal_eigen_periodic_pattern_converges():
    # bipartite zero-diagonal pattern: plain power iteration would cycle,
    # the shifted iteration must still converge
    a = np.array([[0.0, 2.0], [0.5, 0.0]])
    res = principal_eigen(a)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_evm_matches_eigen(tri3):
    assert evm(tri3) == pytest.approx(TRI3_W, abs=1e-9)


def test_evm_needs_complete(inc4):
    with pytest.raises(NotComplete):
        evm(inc4)
    with pytest.raises(NotComplete):
        gmm(inc4)


def test_gmm_closed_form(tri3):
    assert gmm(tri3) == pytest.approx(TRI3_W, abs=1e-14)


def test_gmm_and_evm_normalized_positive():
    rng = np.random.default_rng(42)
    for n in (4, 5, 7):
        m = random_complete(rng, n)
        # rank agreement between the two methods is NOT guaranteed on wildly
        # inconsistent input, so only the invariants are asserted here
        for w in (gmm(m), evm(m)):
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert w.min() > 0


def test_gmm_equals_evm_on_consistent():
    rng = np.random.default_rng(42)
    for n in (4, 5, 7):
        m = gen_consistent(n, rng)
        assert np.abs(gmm(m) - evm(m)).max() <= 1e-9


def test_gmm_exact_on_consistent():
    rng = np.random.default_rng(9)
    m = gen_consistent(6, rng)
    w = gmm(m)
    v = m.values
    for i in range(6):
        for j in range(6):
            assert v[i, j] == pytest.approx(w[i] / w[j], rel=1e-12)


def test_harker_matrix(inc4, tri3):
    b = harker_matrix(inc4)
    assert b[2, 3] == 0.0 and b[3, 2] == 0.0
    assert b[2, 2] == 2.0 and b[3, 3] == 2.0  # one missing entry each
    assert b[0, 0] == 1.0 and b[1, 1] == 1.0
    assert b[0, 1] == inc4[0, 1]
    assert np.array_equal(harker_matrix(tri3), tri3.values)


def test_harker_rank_consistent_completable(inc4):
    res = harker_rank(inc4)
    assert res.value == pytest.approx(4.0, abs=1e-9)
    w = res.vector
    for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]:
        assert w[i] / w[j] == pytest.approx(inc4[i, j], rel=1e-9)


def test_harker_rank_needs_connected(disconnected4):
    with pytest.raises(NotIrreducible):
        harker_rank(disconnected4)
    with pytest.raises(NotIrreducible):
        ills(disconnected4)


def test_harker_on_spanning_tree():
    # tree pattern gives a very sparse B; the shifted iteration still works
    rng = np.random.default_rng(21)
    m = remove_comparisons(random_complete(rng, 6), 10, rng)
    res = harker_rank(m)
    assert res.value >= 6.0 - 1e-9
    assert res.vector.min() > 0


def test_ills_exact_fit(inc4):
    w = ills(inc4)
    expect = np.array([1.0, 1.5, 0.75, 2.0])
    assert w == pytest.approx(expect / expect.sum(), rel=1e-12)


def test_ills_equals_gmm_on_complete():
    rng = np.random.default_rng(3)
    for n in (3, 5, 7):
        m = random_complete(rng, n)
        assert np.abs(ills(m) - gmm(m)).max() <= 1e-9


def test_ills_tree_reproduces_edges():
    rng = np.random.default_rng(12)
    m = remove_comparisons(random_complete(rng, 7), 15, rng)
    w = ills(m)
    v = m.values
    d = m.defined
    for i in range(7):
        for j in range(7):
            if i != j and d[i, j]:
                assert w[i] / w[j] == pytest.approx(v[i, j], rel=1e-9)


def test_ills_huge_weights_do_not_overflow():
    # log-weights 0, 345, 691, 1036: exp(x) alone overflows the largest
    m = parse_matrix(HUGE4_TEXT)
    w = ills(PCMatrix(m.values.T, m.defined.T))
    assert np.isfinite(w).all()
    assert w.sum() == pytest.approx(1.0, rel=1e-15)
    assert w[-1] == pytest.approx(1.0, rel=1e-15)


def test_ills_singular_system_translation(monkeypatch, inc4):
    def boom(*a, **k):
        raise np.linalg.LinAlgError("synthetic")

    monkeypatch.setattr(pcindex.priority.np.linalg, "solve", boom)
    with pytest.raises(SingularSystem):
        ills(inc4)
