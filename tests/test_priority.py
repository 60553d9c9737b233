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
from tests.conftest import HUGE4_TEXT, random_complete

# closed-form principal pair of the 3x3 fixture: lambda = 1 + 2^(1/3) + 2^(-1/3),
# weights proportional to (24^(1/3), (3/2)^(1/3), (1/36)^(1/3))
TRI3_LAMBDA = 1.0 + 2.0 ** (1.0 / 3.0) + 2.0 ** (-1.0 / 3.0)
TRI3_W = np.array([24.0, 1.5, 1.0 / 36.0]) ** (1.0 / 3.0)
TRI3_W = TRI3_W / TRI3_W.sum()


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
