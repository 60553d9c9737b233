"""Experiment pipeline: generation, disturbance, removal, distances.

The heart of this file is the dual-route test: the experiment's fast
evaluation path is replayed step by step through the public operations
(gen_consistent -> disturb -> chained remove_comparisons -> all_indices)
on the same random substreams, and both the removal masks and all
fourteen index values must agree.
"""

import hashlib
import warnings

import numpy as np
import pytest

from pcindex import (
    BadK,
    BadParams,
    BadSize,
    CycleCapExceeded,
    DistanceTable,
    ExperimentConfig,
    NotComplete,
    PCMatrix,
    all_indices,
    build_graph,
    disturb,
    gen_consistent,
    is_complete,
    is_irreducible,
    remove_comparisons,
    run_experiment,
)
from pcindex import _fast
from pcindex.montecarlo import (
    FREE_ENUMERATION_LIMIT,
    _bridges,
    _chain_masks,
    _delta_rows,
    _stream_values,
    distance_csv,
    ranking,
    totals_csv,
)
from tests.conftest import cycle_ratio, list_triads, random_pattern


def _pairs(m):
    """Defined pairs (i, j), i < j, read off the mask in row-major order."""
    return list(zip(*np.nonzero(np.triu(m.defined, 1))))


def test_gen_consistent_properties():
    rng = np.random.default_rng(1)
    m = gen_consistent(7, rng)
    assert is_complete(m)
    v = m.values
    assert len(list_triads(m)) == 35
    for t in list_triads(m):
        assert cycle_ratio(m, t) == pytest.approx(1.0, abs=1e-12)
    assert v.max() <= 9.0 and v.min() >= 1.0 / 9.0  # weight_range 3 -> ratios in 1/9..9
    assert max(abs(x) for x in all_indices(m).values()) <= 1e-12
    wide = gen_consistent(5, rng, weight_range=10.0)
    assert wide.values.max() <= 100.0
    with pytest.raises(BadSize):
        gen_consistent(2, rng)
    for bad in (0.5, 0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(BadParams, match="weight_range must be finite and >= 1"):
            gen_consistent(5, rng, weight_range=bad)
    # finite, but the widest ratio weight_range**2 is not
    for bad in (1e200, 1.5e154, 10**400):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParams, match=r"weight_range\*\*2 must be a finite float"):
                gen_consistent(5, rng, weight_range=bad)


def test_gen_consistent_deterministic():
    a = gen_consistent(6, np.random.default_rng(123))
    b = gen_consistent(6, np.random.default_rng(123))
    assert a == b


def test_disturb_identity_at_one():
    rng = np.random.default_rng(2)
    m = gen_consistent(5, rng)
    assert disturb(m, 1, np.random.default_rng(0)) == m


def test_disturb_properties():
    rng = np.random.default_rng(3)
    m = gen_consistent(7, rng)
    d = disturb(m, 30, rng)
    assert is_complete(d)
    v = d.values
    iu = np.triu_indices(7, 1)
    for i, j in zip(*iu):
        assert v[j, i] == 1.0 / v[i, j]
        ratio = v[i, j] / m.values[i, j]
        assert 1.0 / 30.0 - 1e-12 <= ratio <= 30.0 + 1e-12
    assert v.max() > 9.0  # no clipping: this draw does leave the scale
    with pytest.raises(NotComplete):
        disturb(remove_comparisons(m, 1, rng), 2, rng)
    for bad in (0, float("nan"), float("inf")):
        with pytest.raises(BadParams, match="disturbance level must be finite and >= 1"):
            disturb(m, bad, rng)
    # finite levels that push an entry past the largest float, or push an
    # entry of 5.57e-309 (reciprocal 1.795e308) low enough that its
    # reciprocal overflows
    other = np.random.default_rng(0)
    tiny = PCMatrix(np.full((3, 3), 5.57e-309))
    for base, bad, draws in ((gen_consistent(5, other), 1e308, other), (tiny, 2, rng)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParams, match="leaves an entry or its reciprocal outside"):
                disturb(base, bad, draws)


def test_remove_comparisons_basics():
    rng = np.random.default_rng(5)
    m = gen_consistent(7, rng)
    assert remove_comparisons(m, 0, rng) == m
    r = remove_comparisons(m, 15, rng)
    assert len(_pairs(r)) == 6  # spanning tree
    assert is_irreducible(build_graph(r))
    for i, j in _pairs(r):
        assert r[i, j] == m[i, j]


def test_remove_comparisons_chain_invariants():
    rng = np.random.default_rng(6)
    m = disturb(gen_consistent(7, rng), 5, rng)
    cur = m
    for k in range(1, 16):
        cur = remove_comparisons(cur, 1, rng)
        assert len(_pairs(cur)) == 21 - k
        assert is_irreducible(build_graph(cur))


def test_remove_comparisons_bad_k():
    rng = np.random.default_rng(7)
    m = gen_consistent(6, rng)
    with pytest.raises(BadK):
        remove_comparisons(m, 11, rng)  # spare is C(6,2) - 5 = 10
    with pytest.raises(BadK):
        remove_comparisons(m, -1, rng)
    for bad in (True, np.True_, 1.0):
        with pytest.raises(BadK):
            remove_comparisons(m, bad, rng)
    tree = remove_comparisons(m, 10, rng)
    with pytest.raises(BadK):
        remove_comparisons(tree, 1, rng)
    assert remove_comparisons(tree, 0, rng) == tree


def _adjacency(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _connected(n, edges):
    seen = {0}
    grew = True
    while grew:
        grew = False
        for a, b in edges:
            if (a in seen) != (b in seen):
                seen |= {a, b}
                grew = True
    return len(seen) == n


def _bridges_by_definition(n, edges):
    """The edges whose deletion disconnects the graph."""
    return {e for e in edges if not _connected(n, edges - {e})}


def _shapes(n):
    """Path, star, cycle, K_n and two cliques joined by one edge, on n vertices."""
    full = {(i, j) for i in range(n) for j in range(i + 1, n)}
    path = {(v, v + 1) for v in range(n - 1)}
    h = n // 2
    return [
        path,
        {(0, v) for v in range(1, n)},
        path | {(0, n - 1)},
        full,
        {(i, j) for i, j in full if j < h or i >= h} | {(h - 1, h)},
    ]


@pytest.mark.parametrize("n", range(2, 11))
def test_bridges_match_definition(n):
    rng = np.random.default_rng(400 + n)
    graphs = []
    for edges in _shapes(n):
        # relabelled too, so the search root (vertex 0) sits anywhere in the shape
        perm = rng.permutation(n)
        moved = {tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in edges}
        graphs += [edges, moved]
    spare = n * (n - 1) // 2 - (n - 1)
    for _ in range(60):
        defined = random_pattern(rng, n, int(rng.integers(spare + 1)))
        graphs.append({(i, j) for i in range(n) for j in range(i + 1, n) if defined[i, j]})
    for edges in graphs:
        assert _bridges(n, _adjacency(n, edges), len(edges)) == _bridges_by_definition(n, edges)


@pytest.mark.parametrize("n", range(3, 10))
def test_bridges_of_near_complete_graphs(n):
    """K_n minus at most n - 3 edges has no bridge; minus n - 2 at one vertex it has one.

    (At n = 3 the n - 2 missing edges leave a path, both of whose edges
    are bridges.)
    """
    full = {(i, j) for i in range(n) for j in range(i + 1, n)}
    pairs = sorted(full)
    rng = np.random.default_rng(900 + n)
    graphs = []
    for missing in range(n - 2):
        for _ in range(10):
            graphs.append(full - {pairs[s] for s in rng.choice(len(pairs), missing, replace=False)})
        # all of them at one vertex, which keeps two of its edges
        graphs.append(full - {(0, v) for v in range(1, missing + 1)})
    for edges in graphs:
        assert _bridges(n, _adjacency(n, edges), len(edges)) == set() == _bridges_by_definition(n, edges)
    for v in range(n):
        u = (v + 1 + int(rng.integers(n - 1))) % n
        edges = full - {p for p in full if v in p and u not in p}
        bridges = {(min(u, v), max(u, v))} if n > 3 else edges
        assert _bridges(n, _adjacency(n, edges), len(edges)) == bridges == _bridges_by_definition(n, edges)


def _state_bytes(rng):
    st = rng.bit_generator.state
    return repr(
        (st["bit_generator"], st["state"]["state"], st["state"]["inc"], st["has_uint32"], st["uinteger"])
    ).encode()


def test_removal_stream_pin():
    """Removal chains down to a spanning tree and the generator state after each.

    Any change to the candidate set of a step, to the order the draw
    indexes it in, or to the number of draws moves the digest.
    """
    h = hashlib.sha256()
    for n in range(3, 9):
        pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        spare = len(pairs) - (n - 1)
        for independent in (False, True):
            for seed in range(5):
                rng = np.random.default_rng((seed, n, int(independent)))
                rows = _chain_masks(n, pairs, spare, rng, independent)
                h.update(repr(rows.shape).encode())
                h.update(rows.tobytes())
                h.update(_state_bytes(rng))
    assert h.hexdigest() == "a1e6f95000e04deb33d4decc23bc1dfa50277cafb6f6139e4c554259d827506d"


def test_remove_comparisons_beyond_64_slots():
    """n=12 has 66 slots: the live set no longer fits one machine word."""
    h = hashlib.sha256()
    for seed in range(3):
        rng = np.random.default_rng((seed, 12))
        m = gen_consistent(12, rng)
        for k in (0, 1, 30, 24):  # 55 spare pairs: the last step ends on a spanning tree
            r = remove_comparisons(m, k, rng)
            assert len(_pairs(r)) == len(_pairs(m)) - k
            assert is_irreducible(build_graph(r))
            assert np.array_equal(r.values[r.defined], m.values[r.defined])
            m = r
            h.update(m.defined.tobytes())
            h.update(_state_bytes(rng))
    assert len(_pairs(m)) == 11
    assert h.hexdigest() == "1b05c0d538e37135d12059b0aa1429c047c647346d2e2ca1d469fe6fa7cc5295"


def test_delta_rows_conventions():
    # columns are indices, rows are chain rows scored against row 0
    vals = np.array([[0.5, 0.2, 0.0, 0.25], [0.0, 0.4, 0.0, 0.25], [0.25, 0.2, 0.0, 1.0]])
    d = _delta_rows(vals)
    assert (d[0] == 0.0).all()
    assert d[1].tolist() == [1.0, -0.5, 0.0, 0.0]  # (0.5, 0) -> 1, (0.2, 0.4) -> -0.5, (0, 0) -> 0
    assert d[2].tolist() == [0.5, 0.0, 0.0, -0.75]


def test_delta_rows_row_zero_is_zero():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0.0, 1.0, (5, 14))
    vals[:, 3] = 0.0
    vals[0, 5] = 0.0
    d = _delta_rows(vals)
    assert (d[0] == 0.0).all()
    assert (d[:, 3] == 0.0).all()
    assert (np.abs(d) <= 1.0).all()


def test_config_validation():
    ExperimentConfig(n=7, base_matrices=1, d_max=1, removals_max=15, seed=0)
    with pytest.raises(BadParams):
        ExperimentConfig(n=7, removals_max=16)
    with pytest.raises(BadParams):
        ExperimentConfig(n=2)
    with pytest.raises(BadParams):
        ExperimentConfig(d_max=0)
    with pytest.raises(BadParams):
        ExperimentConfig(base_matrices=0)
    for x in (-0.0, 0.5, 0.5000001, 1.0):
        ExperimentConfig(alpha=x)
    for x in (-0.0, 0.5):
        ExperimentConfig(beta=x)
    for x in (1.5, -0.1, float("nan"), float("inf")):
        with pytest.raises(BadParams):
            ExperimentConfig(alpha=x)
    for x in (0.7, 1.0, 0.5000001, -0.1, float("nan"), float("inf")):
        with pytest.raises(BadParams):
            ExperimentConfig(beta=x)
    for low in (0.5, 0.0, -1.0, float("nan")):
        with pytest.raises(BadParams, match="weight_range must be >= 1"):
            ExperimentConfig(weight_range=low)
    with pytest.raises(BadParams):
        ExperimentConfig(seed="abc")
    with pytest.raises(BadParams, match="seed must be non-negative"):
        ExperimentConfig(seed=-1)  # default_rng refuses negative seeds mid-run
    ExperimentConfig(n=8, removals_max=21)
    with pytest.raises(BadParams):
        ExperimentConfig(n=9, removals_max=1)  # no cycle and path tables beyond n=8
    for wide in (1e200, float("inf"), float("nan")):
        with pytest.raises(BadParams):
            ExperimentConfig(n=5, d_max=2, removals_max=3, weight_range=wide)
    with pytest.raises(BadParams):
        ExperimentConfig(n=8, d_max=10**51, removals_max=1)  # d_max**(2*(n-1)) alone overflows
    for flag in ("no", 1, 0, None):
        with pytest.raises(BadParams, match="independent_removals must be a bool"):
            ExperimentConfig(independent_removals=flag)
    for flag in (True, np.bool_(True), False, np.bool_(False)):
        assert ExperimentConfig(independent_removals=flag).independent_removals is bool(flag)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 7.0),
        ("n", True),
        ("base_matrices", 2.5),
        ("d_max", 2.0),
        ("removals_max", 3.0),
        ("seed", True),
        ("seed", 1.0),
        ("seed", np.bool_(True)),
        ("threads", 2.0),
        ("threads", True),
    ],
)
def test_integer_fields_refuse_other_types(field, value):
    small = dict(n=5, base_matrices=1, d_max=2, removals_max=3)
    with pytest.raises(BadParams, match="%s must be an integer" % field):
        if field == "threads":
            run_experiment(ExperimentConfig(**small), threads=value)
        else:
            ExperimentConfig(**dict(small, **{field: value}))


def test_integer_fields_take_numpy_integers():
    cfg = ExperimentConfig(**{k: np.int64(v) for k, v in SMALL.items()})
    assert cfg == ExperimentConfig(**SMALL)
    assert all(type(getattr(cfg, k)) is int for k in SMALL)
    tab = run_experiment(cfg, threads=np.int64(1))
    assert distance_csv(tab) == distance_csv(run_experiment(ExperimentConfig(**SMALL)))


def test_free_enumeration_limit_is_the_table_budget():
    # ExperimentConfig's largest n is the largest whose tables the step budget lets build
    assert _fast.get_tables(FREE_ENUMERATION_LIMIT).n == FREE_ENUMERATION_LIMIT
    with pytest.raises(CycleCapExceeded):
        _fast.get_tables(FREE_ENUMERATION_LIMIT + 1)


SMALL = dict(n=5, base_matrices=2, d_max=3, removals_max=6, seed=99)


def _public_route(cfg, b):
    """Replay base matrix b of the experiment stream via public operations."""
    rng = np.random.default_rng((cfg.seed, b))
    base = gen_consistent(cfg.n, rng, weight_range=cfg.weight_range)
    for d in range(1, cfg.d_max + 1):
        md = disturb(base, d, rng)
        chain = [md]
        for _ in range(cfg.removals_max):
            chain.append(remove_comparisons(chain[-1], 1, rng))
        iu = np.triu_indices(cfg.n, 1)
        masks = np.array([mk.defined[iu] for mk in chain])
        yield d, masks, chain


def test_fast_path_matches_public_route():
    from pcindex.indices import INDEX_NAMES

    cfg = ExperimentConfig(**SMALL)
    for b in range(cfg.base_matrices):
        public = _public_route(cfg, b)
        for d, fast_masks, fast_vals in _stream_values(cfg, b):
            dp, pub_masks, chain = next(public)
            assert dp == d
            # identical removal decisions: the random streams are in lockstep
            assert np.array_equal(pub_masks, fast_masks)
            for k, mk in enumerate(chain):
                pub = all_indices(mk, alpha=cfg.alpha, beta=cfg.beta)
                for col, name in enumerate(INDEX_NAMES):
                    got = fast_vals[k, col]
                    want = pub[name]
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (
                        b,
                        d,
                        k,
                        name,
                    )


def _by_mask_only(monkeypatch, t, logvals, masks):
    """indices_for_masks with the survival route swapped for the per-row mask route."""
    with monkeypatch.context() as mp:
        mp.setattr(_fast, "_by_survival", _fast._by_mask)
        return _fast.indices_for_masks(t, logvals, masks)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_survival_route_matches_mask_route(n, monkeypatch):
    t = _fast.get_tables(n)
    spare = len(t.pairs) - (n - 1)
    rng = np.random.default_rng(1000 + n)
    for _ in range(3):
        logvals = rng.normal(0.0, 1.0, len(t.pairs))
        chain = _chain_masks(n, t.pairs, spare, rng, False)
        cases = {
            "to spanning tree": chain,
            "single row": chain[:1],
            "single tree row": chain[-1],
            "row 0 incomplete": chain[2:],
            "repeated rows": np.repeat(chain, 2, axis=0),
        }
        for name, masks in cases.items():
            got = _fast.indices_for_masks(t, logvals, masks)
            want = _by_mask_only(monkeypatch, t, logvals, masks)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)
        # a spanning tree has no cycle: the whole cycle family is exactly 0
        last = _fast.indices_for_masks(t, logvals, chain)[-1]
        assert (last[:5] == 0.0).all()


def test_rows_that_do_not_nest_take_the_mask_route(monkeypatch):
    t = _fast.get_tables(6)
    rng = np.random.default_rng(17)
    logvals = rng.normal(0.0, 1.0, len(t.pairs))
    masks = _chain_masks(6, t.pairs, 10, rng, True)
    assert (masks[1:] & ~masks[:-1]).any()
    with monkeypatch.context() as mp:
        mp.setattr(_fast, "_by_survival", None)  # any use of it would fail
        got = _fast.indices_for_masks(t, logvals, masks)
    assert np.array_equal(got, _fast.indices_for_masks(t, logvals, masks))
    # each row on its own is a one-row chain, scored by survival
    alone = np.vstack([_fast.indices_for_masks(t, logvals, mk) for mk in masks])
    np.testing.assert_allclose(alone, got, rtol=1e-12, atol=0.0)


def test_run_experiment_small_invariants():
    cfg = ExperimentConfig(**SMALL)
    tab = run_experiment(cfg)
    assert isinstance(tab, DistanceTable)
    assert tab.index_names == tuple(
        ("Ktilde", "I1", "I2", "Ialpha", "Ialphabeta", "SH", "GCI1", "GCI2",
         "GW", "RE1", "RE2", "CI", "LLS", "Oliva")
    )
    assert tab.d.shape == (14, 7)
    assert (tab.d[:, 0] == 0.0).all()
    assert (np.abs(tab.d) <= 1.0 + 1e-12).all()
    assert tab.totals == pytest.approx(np.abs(tab.d).sum(axis=1), rel=1e-15)
    assert tab.value("Ktilde", 0) == 0.0
    rk = ranking(tab)
    assert sorted(t for _, t in rk) == [t for _, t in rk]
    assert {name for name, _ in rk} == set(tab.index_names)


def test_run_experiment_deterministic_and_thread_invariant():
    cfg = ExperimentConfig(**SMALL)
    t1 = run_experiment(cfg)
    t2 = run_experiment(cfg)
    t3 = run_experiment(cfg, threads=2)
    assert np.array_equal(t1.d, t2.d)
    assert np.array_equal(t1.d, t3.d)
    assert distance_csv(t1) == distance_csv(t3)
    assert totals_csv(t1) == totals_csv(t3)


def test_run_experiment_rejects_thread_counts_below_one():
    cfg = ExperimentConfig(**SMALL)
    for threads in (0, -1):
        with pytest.raises(BadParams):
            run_experiment(cfg, threads=threads)


def test_run_experiment_independent_removals():
    cfg = ExperimentConfig(**dict(SMALL, independent_removals=True))
    tab = run_experiment(cfg)
    assert (tab.d[:, 0] == 0.0).all()
    for b in range(cfg.base_matrices):
        for _d, masks, _vals in _stream_values(cfg, b):
            # row k has exactly k removals, but rows need not nest
            assert [int((~mk).sum()) for mk in masks] == list(range(7))
            for mk in masks:
                assert mk.sum() >= cfg.n - 1


def test_csv_shapes():
    cfg = ExperimentConfig(**SMALL)
    tab = run_experiment(cfg)
    dist = distance_csv(tab).splitlines()
    tot = totals_csv(tab).splitlines()
    assert dist[0] == "index,k,D"
    assert tot[0] == "index,total"
    assert len(dist) == 1 + 14 * 7
    assert len(tot) == 1 + 14
    assert dist[1].startswith("Ktilde,0,0")
    name, k, val = dist[8].split(",")  # rows are index-major, k within index
    assert (name, k) == ("I1", "0")
    float(val)
    assert distance_csv(tab).endswith("\n")


def test_distance_table_unknown_index():
    cfg = ExperimentConfig(**SMALL)
    tab = run_experiment(cfg)
    with pytest.raises(ValueError):
        tab.total("Zeta")
