"""Shared fixtures: small hand matrices, brute-force reference enumerators,
a depth-first cycle search, a transitive-closure reachability test, a
longhand walk enumeration, longhand cycle and path products, the
triad list and a row-by-row mask route.

The brute-force helpers here deliberately do NOT reuse the library's
graph code: they generate candidate vertex sequences by raw
permutation filtering, so the production enumerators are checked
against an independent route.  The depth-first cycle search is the
order and budget oracle of the library's cycle search, the closure that
of its connectivity search, and the longhand walk enumeration that of
its frontier, level by level.  The
longhand products multiply raw entries hop by hop, where the library
sums log-entries.  The row-by-row mask route reduces each row's surviving
path products pair by pair, where the library ranks them once per chain.
The per-step power iteration tests its stopping rule after every step,
where the library tests it once per block of iterates.
"""

from itertools import combinations, permutations

import numpy as np
import pytest

from pcindex import CycleCapExceeded, NotConverged, PCMatrix, graph, parse_matrix
from pcindex.indices import _cycle_stats, _sh
from pcindex.priority import EIGEN_TOL

# one line per acceptance criterion, echoed in the terminal summary so the
# verdicts are visible even when everything passes under output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)

# 3x3 with one triad, moderately inconsistent (2 * 3 != 12)
TRI3_TEXT = """
3
1 2 12
1/2 1 3
1/12 1/3 1
"""

# incomplete 4x4 that is consistently completable (hidden weights 1, 3/2, 3/4, 2)
INC4_TEXT = """
4
1 2/3 4/3 1/2
3/2 1 2 3/4
3/4 1/2 1 ?
2 4/3 ? 1
"""

# sparse irreducible 7x7 with no triads at all (shortest cycle has length 4)
SPARSE7_TEXT = """
7
1 1/2 ? ? ? ? 1/7
2 1 ? 6 4 2 ?
? ? 1 4 3 3/2 ?
? 1/6 1/4 1 ? ? 1/2
? 1/4 1/3 ? 1 ? 1/4
? 1/2 2/3 ? ? 1 1/3
7 ? ? 2 4 3 1
"""

# consistent, weights a^2, a, 1, 1/a with a = 1e150: the least-squares
# residuals and the products of ratios along paths and cycles overflow floats
HUGE4_TEXT = """
4
1 1e150 1e300 ?
1e-150 1 1e150 1e300
1e-300 1e-150 1 1e150
? 1e-300 1e-150 1
"""


@pytest.fixture
def tri3():
    return parse_matrix(TRI3_TEXT)


@pytest.fixture
def inc4():
    return parse_matrix(INC4_TEXT)


@pytest.fixture
def sparse7():
    return parse_matrix(SPARSE7_TEXT)


@pytest.fixture
def disconnected4():
    # two components: {0,1} and {2,3}
    vals = np.ones((4, 4))
    defined = np.eye(4, dtype=bool)
    for i, j in [(0, 1), (2, 3)]:
        defined[i, j] = defined[j, i] = True
        vals[i, j] = 2.0
        vals[j, i] = 0.5
    return PCMatrix(vals, defined)


def random_complete(rng, n, spread=8.0):
    """Random complete reciprocal matrix with entries in [1/spread, spread]."""
    v = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v[i, j] = np.exp(rng.uniform(-np.log(spread), np.log(spread)))
    return PCMatrix(v)


def random_pattern(rng, n, extra):
    """Connected definedness mask: a random spanning tree plus ``extra`` edges."""
    defined = np.eye(n, dtype=bool)
    verts = list(rng.permutation(n))
    in_tree = [verts[0]]
    for v in verts[1:]:
        u = in_tree[int(rng.integers(len(in_tree)))]
        defined[u, v] = defined[v, u] = True
        in_tree.append(v)
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if not defined[i, j]]
    for idx in rng.permutation(len(free))[:extra]:
        i, j = free[int(idx)]
        defined[i, j] = defined[j, i] = True
    return defined


def brute_cycles(n, defined):
    """All canonical simple cycles by raw permutation filtering.

    Canonical: starts at its smallest vertex, second vertex smaller than
    the last, consecutive (and closing) pairs all defined comparisons.
    """
    out = set()
    for size in range(3, n + 1):
        for verts in combinations(range(n), size):
            first = verts[0]
            for rest in permutations(verts[1:]):
                seq = (first,) + rest
                if seq[1] > seq[-1]:
                    continue
                hops = list(zip(seq, seq[1:])) + [(seq[-1], seq[0])]
                if all(defined[a, b] for a, b in hops):
                    out.add(seq)
    return out


def dfs_cycles(adj, max_steps=None):
    """Canonical simple cycles of the boolean adjacency ``adj`` as vertex tuples, by depth-first search.

    It reads its own neighbour lists off ``adj``, row by row with
    ``np.flatnonzero``, not through the library's.  The search fixes the smallest cycle vertex as the start, walks only
    vertices above it in increasing order, and keeps the direction with
    second < last, so the cycles come out in lexicographic order, each
    before its extensions.  It counts one step per vertex it adds to a
    partial path and raises CycleCapExceeded past ``max_steps``
    (default ``graph.MAX_STEPS``).  It keeps its own stack, so long path
    graphs do not recurse.
    """
    if max_steps is None:
        max_steps = graph.MAX_STEPS
    n = len(adj)
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    out = []
    steps = 0
    for s in range(n):
        up = [tuple(u for u in nbrs[v] if u > s) for v in range(n)]
        closes = set(nbrs[s])
        path = [s]
        on_path = {s}
        walk = iter(up[s])
        stack = []
        while True:
            for u in walk:
                if u in on_path:
                    continue
                steps += 1
                if steps > max_steps:
                    raise CycleCapExceeded("cycle search exceeded %d steps" % max_steps)
                path.append(u)
                if u in closes and path[1] < u:
                    out.append(tuple(path))
                on_path.add(u)
                stack.append(walk)
                walk = iter(up[u])
                break
            else:
                if not stack:
                    break
                walk = stack.pop()
                on_path.remove(path.pop())
    return out


def reaches_all(adj):
    """True iff vertex 0 reaches every vertex along the arcs of ``adj``: ``is_irreducible``'s oracle.

    Takes the transitive closure by repeated boolean products: after k
    squarings of I | adj, row 0 marks every vertex that a walk of at most
    2^k arcs from vertex 0 reaches, and 2^k >= n - 1 covers every simple
    path.
    """
    n = len(adj)
    r = (np.asarray(adj) | np.eye(n, dtype=bool)).astype(np.int64)
    for _ in range(n.bit_length()):
        r = (r @ r > 0).astype(np.int64)
    return bool(r[0].all())


def longhand_walks(adj, roots, above):
    """(k, walks) for every level of simple walks over ``adj``, in plain Python: the frontier's oracle.

    Level k extends each walk of level k - 1, in order, by each
    neighbour of its last vertex that the walk has not visited (and,
    with ``above``, that lies above its root), in vertex order.  The
    levels stop before the first empty one; each is an array padded
    with n, in the smallest unsigned dtype that holds n.
    """
    n = len(adj)
    level = [[r] for r in roots]
    out = []
    for k in range(1, n):
        level = [
            w + [u]
            for w in level
            for u in range(n)
            if adj[w[-1]][u] and u not in w and (u > w[0] or not above)
        ]
        if not level:
            break
        walks = np.full((len(level), n + 1), n, dtype=np.min_scalar_type(n))
        walks[:, : k + 1] = level
        out.append((k, walks))
    return out


def cycle_vertices(walks):
    """Vertex tuples of the padded closed walks that ``enumerate_cycles`` returns."""
    return [tuple(row[: row.index(row[0], 1)]) for row in walks.tolist()]


def brute_paths(n, defined, i, j):
    """All simple paths i -> j by raw permutation filtering."""
    others = [v for v in range(n) if v not in (i, j)]
    out = set()
    for size in range(len(others) + 1):
        for mid in permutations(others, size):
            seq = (i,) + mid + (j,)
            if all(defined[a, b] for a, b in zip(seq, seq[1:])):
                out.add(seq)
    return out


def label(m, i, j):
    """The ratio c_ij for a defined ordered pair; KeyError otherwise."""
    if i == j or not m.defined[i, j]:
        raise KeyError("no comparison between %d and %d" % (i, j))
    return float(m.values[i, j])


def hop_product(m, v):
    """Product of labels along the vertex sequence v; for a path, its induced indirect comparison."""
    r = 1.0
    for a, b in zip(v, v[1:]):
        r *= label(m, a, b)
    return r


def cycle_ratio(m, v):
    """Product of labels along the cycle through vertices v divided by the closing label.

    Equals 1 exactly when the judgments along the cycle agree with the
    direct judgment between its endpoints.  Reversing the cycle maps the
    ratio to its reciprocal.
    """
    return hop_product(m, v) / label(m, v[0], v[-1])


def list_triads(m):
    """Vertex triples (i, k, j), i < k < j, whose three comparisons are all defined, in lexicographic order.

    The oracle of the classical K, I1 and I2: a complete matrix yields
    all C(n,3) triples, and ``cycle_ratio(m, t)`` is the triad's ratio
    c_ik * c_kj / c_ij.
    """
    d = m.defined
    return [t for t in combinations(range(m.n), 3) if d[t[0], t[1]] and d[t[1], t[2]] and d[t[0], t[2]]]


def cycle_inconsistency(m, v):
    """min(|1 - R|, |1 - 1/R|) for the ratio R of the cycle through vertices v; in [0, 1)."""
    r = cycle_ratio(m, v)
    return min(abs(1.0 - r), abs(1.0 - 1.0 / r))


def mask_route_by_row(t, ks, pi, masks):
    """(Ktilde, I1, I2, SH) per mask row, one row at a time: the oracle of ``_fast._by_mask``.

    Each row tests every cycle and path against its slot bitmask and
    reduces the kept path products of each pair with ``np.where`` and
    ``reduceat`` at the first index of each pair in ``t.path_pair``.  A
    pair that keeps no path gives lo = inf and hi = -inf, so that row's
    SH is not finite.
    """
    rows, ecount = masks.shape
    starts = np.searchsorted(t.path_pair, np.arange(ecount))
    bits = (masks.astype(np.uint64) << np.arange(ecount, dtype=np.uint64)).sum(axis=1)
    cyc_ok = (t.cyc_need[None, :] & ~bits[:, None]) == 0
    path_ok = (t.path_need[None, :] & ~bits[:, None]) == 0
    stats = np.empty((4, rows))
    for q in range(rows):
        lo = np.minimum.reduceat(np.where(path_ok[q], pi, np.inf), starts)
        hi = np.maximum.reduceat(np.where(path_ok[q], pi, -np.inf), starts)
        stats[:, q] = (*_cycle_stats(ks[cyc_ok[q]]), _sh(t.n, lo, hi))
    return stats


def power_iteration_by_step(A, max_iter):
    """(value, vector) of the shifted power iteration, stopping test after every step: ``principal_eigen``'s oracle.

    Iterates w = (A + I) v / sum((A + I) v) from the uniform vector and
    stops at the first w with max|w - v| <= EIGEN_TOL * max(w), whose
    eigenvalue is sum((A + I) w) - 1.  Raises NotConverged when
    ``max_iter`` steps pass without that.  It takes ``A`` as given: no
    input checks.
    """
    n = len(A)
    M = np.asarray(A, dtype=float) + np.eye(n)
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        w = M @ v
        w /= w.sum()
        if np.max(np.abs(w - v)) <= EIGEN_TOL * np.max(w):
            return float((M @ w).sum()) - 1.0, w
        v = w
    raise NotConverged("power iteration did not converge in %d iterations" % max_iter)
