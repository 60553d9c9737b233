"""Shared fixtures: small hand matrices, brute-force reference enumerators
and longhand cycle and path products.

The brute-force helpers here deliberately do NOT reuse the library's
graph code: they generate candidate vertex sequences by raw
permutation filtering, so the production enumerators are checked
against an independent route.  The longhand products multiply raw
entries hop by hop, where the library sums log-entries.
"""

from itertools import combinations, permutations

import numpy as np
import pytest

from pcindex import PCMatrix, parse_matrix

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


def path_product(m, p):
    """Product of labels along a path (the induced indirect comparison)."""
    v = p.vertices
    r = 1.0
    for a, b in zip(v, v[1:]):
        r *= label(m, a, b)
    return r


def cycle_ratio(m, s):
    """Product of labels along the cycle divided by the closing label.

    Equals 1 exactly when the judgments along the cycle agree with the
    direct judgment between its endpoints.  Reversing the cycle maps the
    ratio to its reciprocal.
    """
    v = s.vertices
    return path_product(m, s) / label(m, v[0], v[-1])


def cycle_inconsistency(m, s):
    """min(|1 - R|, |1 - 1/R|) for the cycle ratio R; in [0, 1)."""
    r = cycle_ratio(m, s)
    return min(abs(1.0 - r), abs(1.0 - 1.0 / r))
