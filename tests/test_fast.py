"""The experiment's per-n tables: built by the numpy frontier of ``graph``
over K_n, and checked against depth-first enumerators, which serve as the
independent oracle of the table route: the cycle search in ``conftest``
and ``graph.enumerate_paths``.  The mask route that scores rows from the
tables is checked bit for bit against the row-by-row route in
``conftest``, and every index row of a fixed set of chains is pinned."""

import hashlib
import time
import warnings
from itertools import combinations

import numpy as np
import pytest

from pcindex import _fast, graph
from pcindex.core import NotIrreducible, PCMatrix
from pcindex.graph import MAX_STEPS, CycleCapExceeded, _ratio_inconsistency, build_graph, enumerate_paths
from pcindex.montecarlo import _chain_masks
from tests.conftest import dfs_cycles, mask_route_by_row

# SHA-256 over every Tables field (see _digest), taken from the tables the
# depth-first enumerators built; when path_starts left Tables, each was
# re-taken over the 12 kept fields of the tables built just before
TABLE_SHA256 = {
    3: "c22f1dbe6a16e8c192831847de3a9f3c47f7e22fa2754a0ad5f995246a17e810",
    4: "5453a54c930b73ef9e4f1903f7e89045d6654a650c89e06633c6f4ade9225b0f",
    5: "fbcf17510b0ce2c2651fea78a595ab1b6dbea1832e4700a36000c3e67ca87015",
    6: "e9bfb5cf952392c91a878916ffe2a10d0e59b809a02ea2ece5c4ed3387c7b985",
    7: "4f0cece6df77caaf284408d8e7dd9190d88f443c5e5c29d0088978e9227085b6",
    8: "ed0fc5f09b3ab224899717f9214de1bc16d528083c812251ab185c014edf33d7",
}

# SHA-256 of _row_digest's index rows, taken while the mask route still
# reduced every row's paths with np.where and reduceat
ROW_SHA256 = "4ec1a6537a027b2037754092f8f90a48a26c2c9cd7e514d5153633b5fb84a1a0"


def _digest(t):
    """SHA-256 over each field's name, then its dtype, shape and bytes (or repr)."""
    h = hashlib.sha256()
    for name, v in zip(t._fields, t):
        h.update(name.encode())
        if isinstance(v, np.ndarray):
            h.update(("%s%s" % (v.dtype.str, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


def _walks(t, slots, rows):
    """Vertex tuples of the table's walks, read back from each hop's slot and sign."""
    out = []
    for ids, signs in zip(slots.T.tolist(), rows):
        hops = [t.pairs[s] if signs[s] > 0 else t.pairs[s][::-1] for s in ids if s < len(t.pairs)]
        assert all(b == a for (_, b), (a, _) in zip(hops, hops[1:]))
        out.append(hops[0][:1] + tuple(b for _, b in hops))
    return out


@pytest.mark.parametrize("n", range(3, 9))
def test_tables_equal_the_depth_first_enumerators(n):
    t = _fast.get_tables(n)
    g = build_graph(PCMatrix(np.ones((n, n))))
    assert t.pairs == tuple(combinations(range(n), 2))
    cycles = [c + c[:1] for c in dfs_cycles(g)]
    assert _walks(t, t.cyc_slots, t.cyc_rows) == cycles
    paths = [enumerate_paths(g, i, j) for i, j in t.pairs]
    assert t.path_pair.tolist() == [s for s, p in enumerate(paths) for _ in p]
    assert _walks(t, t.path_slots, t.path_rows) == [v for p in paths for v in p]


@pytest.mark.parametrize("n", range(3, 9))
def test_tables_hold_their_pinned_bytes(n):
    assert _digest(_fast.get_tables(n)) == TABLE_SHA256[n]


def test_tables_build_without_the_enumerators(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the table route called the depth-first path enumerator")

    # patched in _fast too, where a ``from .graph import`` would have bound it
    for module in (graph, _fast):
        monkeypatch.setattr(module, "enumerate_paths", refuse, raising=False)
    _fast.get_tables.cache_clear()
    for n in range(3, 9):
        assert _digest(_fast.get_tables(n)) == TABLE_SHA256[n]


def test_frontier_takes_the_cycle_search_steps_of_k8():
    # K8's cycle search takes exactly MAX_STEPS steps
    k8 = ~np.eye(8, dtype=bool)
    assert sum(1 for _ in graph._frontier(k8, range(8), above=True, max_steps=MAX_STEPS)) == 7
    with pytest.raises(CycleCapExceeded, match="cycle search exceeded %d steps" % (MAX_STEPS - 1)):
        list(graph._frontier(k8, range(8), above=True, max_steps=MAX_STEPS - 1))


def test_k9_tables_exceed_the_budget_quickly():
    start = time.perf_counter()
    with pytest.raises(CycleCapExceeded, match="cycle search exceeded %d steps" % MAX_STEPS):
        _fast.get_tables(9)
    assert time.perf_counter() - start < 1.0


def _row_digest():
    """SHA-256 over the raw indices_for_masks rows of nested, reversed and independent chains.

    n = 3..8, consistent and disturbed log-values, every chain down to a
    spanning tree.  A nested chain takes the survival route; the same
    rows reversed and the independent chains take the mask route.
    """
    h = hashlib.sha256()
    for n in range(3, 9):
        t = _fast.get_tables(n)
        spare = len(t.pairs) - (n - 1)
        rng = np.random.default_rng((1600, n))
        for disturbed in (False, True):
            for _ in range(3):
                lv = _fast.consistent_logvals(t, rng.uniform(-1.1, 1.1, n))
                if disturbed:
                    lv = lv + np.log(rng.uniform(1.0 / 7.0, 7.0, lv.size))
                for independent in (False, True):
                    masks = _chain_masks(n, t.pairs, spare, rng, independent)
                    for rows in (masks, masks[::-1]):
                        h.update(_fast.indices_for_masks(t, lv, rows).tobytes())
    return h.hexdigest()


def test_index_rows_hold_their_pinned_bytes():
    assert _row_digest() == ROW_SHA256


def _products(t, logvals):
    return _ratio_inconsistency(np.exp(t.cyc_rows @ logvals)), np.exp(t.path_rows @ logvals)


@pytest.mark.parametrize("n", range(3, 9))
def test_mask_route_equals_the_row_by_row_route(n):
    t = _fast.get_tables(n)
    spare = len(t.pairs) - (n - 1)
    rng = np.random.default_rng(1610 + n)
    logw = rng.integers(-3, 4, n).astype(float)
    cases = {
        "disturbed": _fast.consistent_logvals(t, logw) + rng.normal(0.0, 1.0, len(t.pairs)),
        # integer log-weights: every path of a pair has exactly the same product
        "tied": _fast.consistent_logvals(t, logw),
    }
    for name, logvals in cases.items():
        ks, pi = _products(t, logvals)
        for independent in (True, False):
            masks = _chain_masks(n, t.pairs, spare, rng, independent)
            for rows in (masks, masks[::-1], masks[:1], masks[-1:]):
                want = mask_route_by_row(t, ks, pi, rows)
                assert np.isfinite(want).all(), name
                got = _fast._by_mask(t, ks, pi, rows)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("n", [3, 5, 8])
def test_mask_route_refuses_a_disconnected_row(n):
    t = _fast.get_tables(n)
    rng = np.random.default_rng(1620 + n)
    ks, pi = _products(t, rng.normal(0.0, 1.0, len(t.pairs)))
    masks = _chain_masks(n, t.pairs, len(t.pairs) - (n - 1), rng, True)
    cut = masks[-1].copy()
    cut[[s for s, p in enumerate(t.pairs) if n - 1 in p]] = False  # vertex n - 1 alone
    rows = np.vstack([masks[:2], cut])
    # the row-by-row route reads the missing pairs' extremes as inf and -inf
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(mask_route_by_row(t, ks, pi, rows)[3, 2])
    with pytest.raises(NotIrreducible):
        _fast._by_mask(t, ks, pi, rows)
    with pytest.raises(NotIrreducible):
        _fast._by_mask(t, ks, pi, cut[None, :])


@pytest.mark.parametrize("n", range(5, 9))
def test_disconnected_rows_are_refused_on_both_routes(n):
    t = _fast.get_tables(n)
    rng = np.random.default_rng(1800 + n)
    full = np.ones(len(t.pairs), dtype=bool)
    for _ in range(20):
        # two vertex groups with no comparison between them
        group = rng.permutation(n) < rng.integers(1, n)
        cross = group[t.iu] != group[t.ju]
        cut = ~cross & (rng.random(len(t.pairs)) < 0.7)
        logvals = _fast.consistent_logvals(t, rng.uniform(-1.0, 1.0, n)) + rng.normal(0.0, 0.5, len(t.pairs))
        # a single row and nested chains take the survival route, the last the mask route
        for rows in ([cut], [full, cut], [full, cut | cross, cut], [cut, full]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotIrreducible):
                    _fast.indices_for_masks(t, logvals, np.array(rows))
