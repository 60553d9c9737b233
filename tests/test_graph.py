"""Comparison graph, cycle/path enumeration, cycle quantities."""

import numpy as np
import pytest

from pcindex import (
    Cycle,
    CycleCapExceeded,
    NoPath,
    Path,
    PCMatrix,
    build_graph,
    enumerate_cycles,
    enumerate_paths,
    graph,
    is_irreducible,
)
from tests.conftest import (
    brute_cycles,
    brute_paths,
    cycle_inconsistency,
    cycle_ratio,
    label,
    path_product,
    random_complete,
    random_pattern,
)

# canonical simple cycle counts of the complete graph, n = 3..7
COMPLETE_CYCLES = {3: 1, 4: 7, 5: 37, 6: 197, 7: 1172}


def complete(n):
    return PCMatrix(np.ones((n, n)))


def test_graph_basics(inc4):
    g = build_graph(inc4)
    assert g.n == 4
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    assert g.neighbors(0) == (1, 2, 3)
    assert g.neighbors(2) == (0, 1)
    assert g.neighbors(3) == (0, 1)
    assert label(inc4, 0, 1) == 2.0 / 3.0
    assert label(inc4, 1, 0) == pytest.approx(1.5)
    with pytest.raises(KeyError):
        label(inc4, 2, 3)


def test_is_irreducible(tri3, inc4, sparse7, disconnected4):
    assert is_irreducible(build_graph(tri3))
    assert is_irreducible(build_graph(inc4))
    assert is_irreducible(build_graph(sparse7))
    assert not is_irreducible(build_graph(disconnected4))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_cycle_counts_complete(n):
    assert len(enumerate_cycles(build_graph(complete(n)))) == COMPLETE_CYCLES[n]


def test_cycles_are_canonical_sorted_unique():
    out = enumerate_cycles(build_graph(complete(5)))
    seqs = [c.vertices for c in out]
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
    got = {c.vertices for c in enumerate_cycles(g)}
    assert got == brute_cycles(n, m.defined)


def test_sparse7_has_no_triads_but_cycles(sparse7):
    g = build_graph(sparse7)
    cycles = enumerate_cycles(g)
    assert cycles  # irreducible with redundancy, so cycles exist
    assert min(len(c.vertices) for c in cycles) == 4  # no triads at all
    assert (0, 1, 3, 6) in {c.vertices for c in cycles}
    assert {c.vertices for c in cycles} == brute_cycles(7, sparse7.defined)


def test_cycle_cap():
    g = build_graph(complete(9))
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(g)  # free enumeration only up to n = 8
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(g, max_cycles=50)
    some = enumerate_cycles(build_graph(complete(5)), max_cycles=37)
    assert len(some) == 37
    # n = 8 is still free
    assert len(enumerate_cycles(build_graph(complete(8)))) == 8018


def path_graph(n):
    chain = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    return build_graph(PCMatrix(np.ones((n, n)), chain))


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
    assert enumerate_cycles(g) == []
    assert [p.vertices for p in enumerate_paths(g, 0, 8)] == [tuple(range(9))]
    # K9's 13700 paths per pair fit the budget, K10's 109601 do not
    assert len(enumerate_paths(build_graph(complete(9)), 0, 1)) == 13700
    with pytest.raises(CycleCapExceeded):
        enumerate_paths(build_graph(complete(10)), 0, 1)
    # thirty diamonds in series: 30 cycles, but about 2^30 dead ends to walk
    diamonds = np.eye(91, dtype=bool)
    for a in range(0, 90, 3):
        for i, j in ((a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)):
            diamonds[i, j] = diamonds[j, i] = True
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(build_graph(PCMatrix(np.ones((91, 91)), diamonds)))


def test_searches_do_not_recurse():
    # 1500 vertices in a row would overflow a recursive search
    g = path_graph(1500)
    assert [p.vertices for p in enumerate_paths(g, 0, 1499)] == [tuple(range(1500))]
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(g)  # 1500 * 1499 / 2 steps


def test_path_count_complete7():
    g = build_graph(complete(7))
    assert len(enumerate_paths(g, 0, 1)) == 326
    assert len(enumerate_paths(g, 3, 5)) == 326


def test_paths_inc4(inc4):
    g = build_graph(inc4)
    got = [p.vertices for p in enumerate_paths(g, 2, 3)]
    assert got == [(2, 0, 1, 3), (2, 0, 3), (2, 1, 0, 3), (2, 1, 3)]
    assert got == sorted(got)
    for p in enumerate_paths(g, 2, 3):
        assert path_product(inc4, p) == pytest.approx(3.0 / 8.0, rel=1e-12)


@pytest.mark.parametrize("n,extra", [(4, 1), (5, 2), (6, 5)])
def test_paths_match_brute_force(n, extra):
    rng = np.random.default_rng(7 * n + extra)
    m = PCMatrix(np.ones((n, n)), random_pattern(rng, n, extra))
    g = build_graph(m)
    for i in range(n):
        for j in range(i + 1, n):
            got = {p.vertices for p in enumerate_paths(g, i, j)}
            assert got == brute_paths(n, m.defined, i, j)


def test_paths_argument_errors(disconnected4):
    g = build_graph(complete(4))
    with pytest.raises(ValueError):
        enumerate_paths(g, 2, 2)
    with pytest.raises(ValueError):
        enumerate_paths(g, 0, 9)
    with pytest.raises(NoPath):
        enumerate_paths(build_graph(disconnected4), 0, 2)


def test_cycle_ratio_and_inconsistency(sparse7, tri3):
    c = Cycle((0, 1, 3, 6))
    assert cycle_ratio(sparse7, c) == pytest.approx(10.5, rel=1e-12)
    assert cycle_inconsistency(sparse7, c) == pytest.approx(19.0 / 21.0, rel=1e-12)
    assert cycle_ratio(tri3, Cycle((0, 1, 2))) == pytest.approx(0.5, rel=1e-12)
    assert cycle_inconsistency(tri3, Cycle((0, 1, 2))) == 0.5


def test_cycle_inconsistency_direction_invariant():
    rng = np.random.default_rng(3)
    m = random_complete(rng, 5)
    for c in enumerate_cycles(build_graph(m)):
        back = (c.vertices[0],) + tuple(reversed(c.vertices[1:]))
        kf = cycle_inconsistency(m, c)
        kb = cycle_inconsistency(m, Cycle(back))
        assert kf == pytest.approx(kb, rel=1e-9)
        assert 0.0 <= kf < 1.0
        assert cycle_ratio(m, Cycle(back)) == pytest.approx(
            1.0 / cycle_ratio(m, c), rel=1e-9
        )


def test_path_product_single_edge(tri3):
    assert path_product(tri3, Path((0, 2))) == 12.0
    assert path_product(tri3, Path((2, 0))) == 1.0 / 12.0


def test_consistent_matrix_all_cycle_ratios_one():
    rng = np.random.default_rng(11)
    u = np.exp(rng.uniform(-1, 1, 6))
    m = PCMatrix(u[:, None] / u[None, :])
    for c in enumerate_cycles(build_graph(m)):
        assert cycle_inconsistency(m, c) <= 1e-12
