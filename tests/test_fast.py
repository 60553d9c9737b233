"""The experiment's per-n tables: built by the numpy frontier of ``graph``
over K_n, and checked against depth-first enumerators, which serve as the
independent oracle of the table route: the cycle search in ``conftest``
and ``graph.enumerate_paths``.  The mask route that scores rows from the
tables is checked bit for bit against the row-by-row route in
``conftest``, and every index row of a fixed set of chains is pinned."""

import hashlib
import time
import tracemalloc
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
# re-taken over the 12 kept fields of the tables built just before, and
# when the slot triples replaced the per-hop slot tables, again after the
# triples decoded to those slot tables and every other field kept its bytes
TABLE_SHA256 = {
    3: "806a25ac49f5249014f44b4c70576d2a30f61c2316f7be5b32f52037ef8bf7ee",
    4: "3d340860cdd71125370b37170e2a62020f67983561448f510b0ace137400c564",
    5: "32b7fc905915e421623ad910a3418905acb57872f0925651aa52ef935012d374",
    6: "1be6fd7b44f825308e8a81bd15e5e8afeef0af9b27a8c682991b39094919355c",
    7: "e73a4e45a51a376102ab07b66641cf6d1c64093949ada55e11037527d098c114",
    8: "664d21f6db41bbf31ec0e4c3040086c83731abe41ee7d9c9e677ef03b3d8a943",
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


def _hop_slots(t, triples):
    """Per-hop slot ids (3 hops per triple row, walks as columns) decoded from the slot triples."""
    base = len(t.pairs) + 1
    digits = (triples // (base * base), triples // base % base, triples % base)
    return np.stack(digits, axis=1).reshape(-1, triples.shape[1])


def _walks(t, triples, rows):
    """Vertex tuples of the table's walks, read back from each hop's slot and sign.

    A walk's hops come first; every slot after them is the padding slot E.
    """
    ecount = len(t.pairs)
    out = []
    for ids, signs in zip(_hop_slots(t, triples).T.tolist(), rows):
        width = ids.index(ecount) if ecount in ids else len(ids)
        assert ids[width:] == [ecount] * (len(ids) - width)
        hops = [t.pairs[s] if signs[s] > 0 else t.pairs[s][::-1] for s in ids[:width]]
        assert all(b == a for (_, b), (a, _) in zip(hops, hops[1:]))
        out.append(hops[0][:1] + tuple(b for _, b in hops))
    return out


@pytest.mark.parametrize("n", range(3, 9))
def test_tables_equal_the_depth_first_enumerators(n):
    t = _fast.get_tables(n)
    g = build_graph(PCMatrix(np.ones((n, n))))
    assert t.pairs == tuple(combinations(range(n), 2))
    assert t.cyc_triples.shape[0] == -(-n // 3) and t.path_triples.shape[0] == -(-(n - 1) // 3)
    cycles = [c + c[:1] for c in dfs_cycles(g)]
    assert _walks(t, t.cyc_triples, t.cyc_rows) == cycles
    paths = [enumerate_paths(g, i, j) for i, j in t.pairs]
    assert t.path_pair.tolist() == [s for s, p in enumerate(paths) for _ in p]
    assert _walks(t, t.path_triples, t.path_rows) == [v for p in paths for v in p]


@pytest.mark.parametrize("n", range(3, 9))
def test_walk_lives_equal_the_per_hop_minimum(n):
    t = _fast.get_tables(n)
    rng = np.random.default_rng(1900 + n)
    for rows in (1, 2, 22, 255, 300):
        # every slot's life is drawn, the padding slot E's too, so a
        # padding digit that named the wrong slot would show
        life = rng.integers(0, rows + 1, len(t.pairs) + 1).astype(np.min_scalar_type(rows))
        for got, triples in zip(_fast._walk_lives(life, t), (t.cyc_triples, t.path_triples)):
            want = life.take(_hop_slots(t, triples)).min(axis=0)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_nested_chain_needs_no_table_sized_temporary():
    t = _fast.get_tables(8)
    rng = np.random.default_rng(1960)
    logvals = _fast.consistent_logvals(t, rng.uniform(-1.1, 1.1, 8)) + np.log(rng.uniform(1.0 / 7.0, 7.0, 28))
    masks = _chain_masks(8, t.pairs, len(t.pairs) - 7, rng, False)
    _fast.indices_for_masks(t, logvals, masks)
    tracemalloc.start()
    try:
        _fast.indices_for_masks(t, logvals, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n = 8 path table alone is 54,796 paths of 7 hops; an intp copy of
    # it per chain would be 2.9 MB
    assert peak < 1.5 * 2**20


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
