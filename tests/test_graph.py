"""Comparison graph, cycle/path enumeration, cycle quantities."""

import time
import tracemalloc

import numpy as np
import pytest

from pcindex import (
    CycleCapExceeded,
    PCMatrix,
    ReducibleInput,
    build_graph,
    enumerate_cycles,
    enumerate_paths,
    graph,
    is_irreducible,
    principal_eigen,
)
from tests.conftest import (
    brute_cycles,
    brute_paths,
    cycle_inconsistency,
    cycle_ratio,
    cycle_vertices,
    dfs_cycles,
    hop_product,
    label,
    longhand_walks,
    random_complete,
    random_pattern,
    reaches_all,
)

# canonical simple cycle counts of the complete graph, n = 3..7
COMPLETE_CYCLES = {3: 1, 4: 7, 5: 37, 6: 197, 7: 1172}


def complete(n):
    return PCMatrix(np.ones((n, n)))


def test_graph_basics(inc4):
    g = build_graph(inc4)
    assert g.dtype == bool and g.shape == (4, 4)
    assert not g.diagonal().any() and (g == g.T).all()
    assert np.argwhere(np.triu(g)).tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]
    assert np.flatnonzero(g[0]).tolist() == [1, 2, 3]
    assert np.flatnonzero(g[2]).tolist() == [0, 1]
    assert np.flatnonzero(g[3]).tolist() == [0, 1]
    # a fresh array: writing it leaves the matrix's mask alone
    g[0, 1] = False
    assert inc4.defined[0, 1]
    assert label(inc4, 0, 1) == 2.0 / 3.0
    assert label(inc4, 1, 0) == pytest.approx(1.5)
    with pytest.raises(KeyError):
        label(inc4, 2, 3)


def test_is_irreducible(tri3, inc4, sparse7, disconnected4):
    assert is_irreducible(build_graph(tri3))
    assert is_irreducible(build_graph(inc4))
    assert is_irreducible(build_graph(sparse7))
    assert not is_irreducible(build_graph(disconnected4))


def test_is_irreducible_equals_the_closure_oracle():
    # symmetric comparison graphs and directed patterns (diagonal included)
    rng = np.random.default_rng(20)
    verdicts = {True: 0, False: 0}
    for n in range(1, 13):
        for density in (0.1, 0.25, 0.5, 0.8):
            for _ in range(5):
                directed = rng.random((n, n)) < density
                sym = np.triu(directed, 1)
                sym |= sym.T
                for adj in (sym, directed):
                    want = reaches_all(adj)
                    assert is_irreducible(adj) == want, adj
                    verdicts[want] += 1
    assert min(verdicts.values()) >= 100


def test_is_irreducible_tests_reachability_from_vertex_0():
    # 0 reaches 1 and 2, but nothing reaches 0: not strongly connected
    p = np.zeros((3, 3), dtype=bool)
    p[0, 1] = p[0, 2] = True
    assert is_irreducible(p) and not is_irreducible(p.T)
    with pytest.raises(ReducibleInput):
        principal_eigen(p + np.eye(3))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_cycle_counts_complete(n):
    assert len(enumerate_cycles(build_graph(complete(n)))) == COMPLETE_CYCLES[n]


def test_cycles_are_canonical_sorted_unique():
    seqs = cycle_vertices(enumerate_cycles(build_graph(complete(5))))
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    for s in seqs:
        assert s[0] == min(s)
        assert s[1] < s[-1]
        assert len(set(s)) == len(s) >= 3


@pytest.mark.parametrize("n,extra", [(4, 2), (5, 3), (5, 6), (6, 4), (6, 9)])
def test_cycles_match_brute_force(n, extra):
    rng = np.random.default_rng(100 * n + extra)
    m = PCMatrix(np.ones((n, n)), random_pattern(rng, n, extra))
    g = build_graph(m)
    got = set(cycle_vertices(enumerate_cycles(g)))
    assert got == brute_cycles(n, m.defined)


def test_sparse7_has_no_triads_but_cycles(sparse7):
    g = build_graph(sparse7)
    cycles = cycle_vertices(enumerate_cycles(g))
    assert cycles  # irreducible with redundancy, so cycles exist
    assert min(len(c) for c in cycles) == 4  # no triads at all
    assert (0, 1, 3, 6) in set(cycles)
    assert set(cycles) == brute_cycles(7, sparse7.defined)


def test_cycle_cap():
    g = build_graph(complete(9))
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(g)  # free enumeration only up to n = 8
    # n = 8 is still free
    assert len(enumerate_cycles(build_graph(complete(8)))) == 8018


def graph_of(n, edges):
    defined = np.eye(n, dtype=bool)
    for i, j in edges:
        defined[i, j] = defined[j, i] = True
    return build_graph(PCMatrix(np.ones((n, n)), defined))


def path_graph(n):
    return graph_of(n, [(k, k + 1) for k in range(n - 1)])


def diamonds_graph(count):
    """``count`` diamonds in series: one cycle each, about 2^count partial paths."""
    edges = []
    for a in range(0, 3 * count, 3):
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    return graph_of(3 * count + 1, edges)


def test_step_budget_is_the_k8_cycle_search(monkeypatch):
    k8 = build_graph(complete(8))
    assert graph.MAX_STEPS == 16064
    monkeypatch.setattr(graph, "MAX_STEPS", 16063)
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(k8)
    # the 1957 paths between two vertices of K8 take 1956 steps
    assert len(enumerate_paths(k8, 0, 1)) == 1957
    monkeypatch.setattr(graph, "MAX_STEPS", 1955)
    with pytest.raises(CycleCapExceeded):
        enumerate_paths(k8, 0, 1)


def test_step_budget_counts_work_not_n():
    # a 9-vertex path is past n = 8 but has one path per pair and no cycle
    g = path_graph(9)
    assert len(enumerate_cycles(g)) == 0
    assert enumerate_paths(g, 0, 8) == [tuple(range(9))]
    # K9's 13700 paths per pair fit the budget, K10's 109601 do not
    assert len(enumerate_paths(build_graph(complete(9)), 0, 1)) == 13700
    with pytest.raises(CycleCapExceeded):
        enumerate_paths(build_graph(complete(10)), 0, 1)
    # thirty diamonds in series: 30 cycles, but about 2^30 dead ends to walk
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(diamonds_graph(30))


def test_searches_do_not_recurse():
    # 1500 vertices in a row would overflow a recursive search
    g = path_graph(1500)
    assert is_irreducible(g)
    cut = g.copy()
    cut[700, 701] = cut[701, 700] = False
    assert not is_irreducible(cut)
    assert enumerate_paths(g, 0, 1499) == [tuple(range(1500))]
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(g)  # 1500 * 1499 / 2 steps


def _cycles_or_refusal(search, g):
    try:
        return search(g)
    except CycleCapExceeded as e:
        return str(e)


def test_frontier_matches_the_depth_first_search():
    # same cycles in the same order, or the same refusal, on random graphs
    # and fixed shapes; several of them lie past the step budget
    rng = np.random.default_rng(15)
    cases = [diamonds_graph(2), diamonds_graph(30), path_graph(1500)]
    for n in range(3, 11):
        cases += [
            path_graph(n),
            graph_of(n, [(0, k) for k in range(1, n)]),
            graph_of(n, [(k, (k + 1) % n) for k in range(n)]),
            build_graph(complete(n)),
        ]
        spare = n * (n - 1) // 2 - (n - 1)
        for extra in rng.integers(0, spare + 1, size=8):
            cases.append(build_graph(PCMatrix(np.ones((n, n)), random_pattern(rng, n, int(extra)))))
    refused = 0
    for g in cases:
        want = _cycles_or_refusal(dfs_cycles, g)
        got = _cycles_or_refusal(lambda g: cycle_vertices(enumerate_cycles(g)), g)
        assert got == want, g
        refused += isinstance(want, str)
    assert 10 <= refused <= len(cases) - 50


def test_frontier_and_depth_first_search_share_the_k8_budget(monkeypatch):
    k8 = build_graph(complete(8))
    assert len(enumerate_cycles(k8)) == len(dfs_cycles(k8)) == 8018
    monkeypatch.setattr(graph, "MAX_STEPS", graph.MAX_STEPS - 1)
    for search in (enumerate_cycles, dfs_cycles):
        with pytest.raises(CycleCapExceeded, match="exceeded 16063 steps"):
            search(k8)


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("n", range(3, 13))
def test_frontier_levels_equal_the_longhand_walks(n, above):
    rng = np.random.default_rng((18, n, above))
    for density in (0.25, 0.5, 0.75, 1.0) if n <= 7 else (0.2, 0.4):
        for _ in range(2):
            adj = np.triu(rng.random((n, n)) < density, 1)
            adj |= adj.T
            got = list(graph._frontier(adj, range(n), above))
            want = longhand_walks(adj, range(n), above)
            assert [k for k, _ in got] == [k for k, _ in want]
            for (_, g), (_, w) in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape and (g == w).all()


def test_frontier_refuses_at_the_longhand_step():
    # K7 from every root, with the budget ending just before and just at the
    # end of each level: the frontier yields exactly the levels that fit
    adj = ~np.eye(7, dtype=bool)
    steps = np.cumsum([len(w) for _, w in longhand_walks(adj, range(7), above=False)])
    for level, end in enumerate(steps.tolist(), start=1):
        for budget, fit in ((end - 1, level - 1), (end, level)):
            seen = []
            refusal = None
            try:
                for k, _ in graph._frontier(adj, range(7), False, max_steps=budget):
                    seen.append(k)
            except CycleCapExceeded as exc:
                refusal = exc.args
            assert seen == list(range(1, fit + 1))
            if budget < steps[-1]:
                assert refusal == ("cycle search exceeded %d steps" % budget,)
            else:
                assert refusal is None


def test_frontier_refuses_a_large_level_before_building_it():
    # K64: 4032 one-hop walks fit a budget of 10000, the 249,984 two-hop walks
    # (16 MB of walk rows alone) do not
    adj = ~np.eye(64, dtype=bool)
    levels = []
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CycleCapExceeded, match="^cycle search exceeded 10000 steps$"):
            for k, walks in graph._frontier(adj, range(64), above=False, max_steps=10000):
                levels.append((k, len(walks)))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert levels == [(1, 4032)]
    assert peak < 4 * 2**20
    assert elapsed < 1.0


def test_path_count_complete7():
    g = build_graph(complete(7))
    assert len(enumerate_paths(g, 0, 1)) == 326
    assert len(enumerate_paths(g, 3, 5)) == 326


def test_paths_inc4(inc4):
    g = build_graph(inc4)
    got = enumerate_paths(g, 2, 3)
    assert got == [(2, 0, 1, 3), (2, 0, 3), (2, 1, 0, 3), (2, 1, 3)]
    assert got == sorted(got)
    for p in got:
        assert hop_product(inc4, p) == pytest.approx(3.0 / 8.0, rel=1e-12)


@pytest.mark.parametrize("n,extra", [(4, 1), (5, 2), (6, 5)])
def test_paths_match_brute_force(n, extra):
    rng = np.random.default_rng(7 * n + extra)
    m = PCMatrix(np.ones((n, n)), random_pattern(rng, n, extra))
    g = build_graph(m)
    for i in range(n):
        for j in range(i + 1, n):
            got = set(enumerate_paths(g, i, j))
            assert got == brute_paths(n, m.defined, i, j)


def test_paths_argument_errors(disconnected4):
    g = build_graph(complete(4))
    with pytest.raises(ValueError):
        enumerate_paths(g, 2, 2)
    with pytest.raises(ValueError):
        enumerate_paths(g, 0, 9)
    assert enumerate_paths(build_graph(disconnected4), 0, 2) == []


def test_cycle_ratio_and_inconsistency(sparse7, tri3):
    c = (0, 1, 3, 6)
    assert cycle_ratio(sparse7, c) == pytest.approx(10.5, rel=1e-12)
    assert cycle_inconsistency(sparse7, c) == pytest.approx(19.0 / 21.0, rel=1e-12)
    assert cycle_ratio(tri3, (0, 1, 2)) == pytest.approx(0.5, rel=1e-12)
    assert cycle_inconsistency(tri3, (0, 1, 2)) == 0.5


def test_cycle_inconsistency_direction_invariant():
    rng = np.random.default_rng(3)
    m = random_complete(rng, 5)
    for c in cycle_vertices(enumerate_cycles(build_graph(m))):
        back = (c[0],) + tuple(reversed(c[1:]))
        kf = cycle_inconsistency(m, c)
        kb = cycle_inconsistency(m, back)
        assert kf == pytest.approx(kb, rel=1e-9)
        assert 0.0 <= kf < 1.0
        assert cycle_ratio(m, back) == pytest.approx(
            1.0 / cycle_ratio(m, c), rel=1e-9
        )


def test_path_product_single_edge(tri3):
    assert hop_product(tri3, (0, 2)) == 12.0
    assert hop_product(tri3, (2, 0)) == 1.0 / 12.0


def test_consistent_matrix_all_cycle_ratios_one():
    rng = np.random.default_rng(11)
    u = np.exp(rng.uniform(-1, 1, 6))
    m = PCMatrix(u[:, None] / u[None, :])
    for c in cycle_vertices(enumerate_cycles(build_graph(m))):
        assert cycle_inconsistency(m, c) <= 1e-12
