"""Inputs of the analyze workload: matrix files in the program's plain-text format.

A round is one analyze call per entry of ROUND plus the two FIXED
matrices.  Each round draws fresh matrices from the workload seed and
the round number, so every round costs the same kind of work while the
run as a whole covers many distinct matrices.
"""

import itertools
import math

import numpy as np

SAATY = (1, 2, 3, 4, 5, 6, 7, 8, 9)

# (n, share of the spare comparisons removed, consistent?) per analyze
# call.  Share 0 is a complete matrix, share 1 a spanning tree.  The two
# complete n=8 matrices are 2 of 26 calls (7.7 %), so the 95th percentile
# of a run lands inside them and they set most of units_per_s.
ROUND = (
    [(8, 0.0, False)] * 2
    + [(8, 0.5, False)]
    + [(7, 0.0, False), (7, 0.3, False), (7, 0.7, False)]
    + [(6, 0.0, False)] * 2
    + [(6, 0.3, False), (6, 0.6, False), (6, 1.0, False)]
    + [(5, 0.0, False)] * 2
    + [(5, 0.3, False), (5, 0.6, False), (5, 1.0, False)]
    + [(4, 0.0, False)] * 2
    + [(4, 0.5, False), (4, 1.0, False)]
    + [(3, 0.0, False)] * 2
    + [(3, 1.0, False)]
    + [(5, 0.4, True)]
)

# Complete consistent 6x6 matrices whose weights spread over 1e-8..1e8.
# They do not depend on the seed: the power iteration behind CI and
# Oliva stops before their small weight components converge, so both
# indices come out above 0 (0.025 and 0.23, 0.0035 and 0.031) on every
# run.  With comparisons missing, Harker's diagonal shifts the spectrum
# and the iteration converges, so these stay complete.
FIXED_EXPONENTS = (
    (1.95, 7.82, -4.56, -5.44, 1.80, -7.30),
    (-7.92, 5.14, 4.75, -0.51, -3.15, -3.55),
)


class Matrix:
    """One analyze input: upper-triangle log-entries, presence mask and file text."""

    def __init__(self, n, upper, consistent, fixed=False):
        pairs = list(itertools.combinations(range(n), 2))
        self.n = n
        self.mask = np.array([upper[p] is not None for p in pairs])
        self.logvals = np.array([math.log(_value(upper[p])) if upper[p] else 0.0 for p in pairs])
        self.complete = bool(self.mask.all())
        self.consistent = consistent
        self.fixed = fixed
        self.text = _text(n, upper)


def _value(tok):
    a, _, b = tok.partition("/")
    return int(a) / int(b) if b else float(a)


def _text(n, upper):
    rows = [["1"] * n for _ in range(n)]
    for (i, j), tok in upper.items():
        if tok is None:
            rows[i][j] = rows[j][i] = "?"
        else:
            rows[i][j] = tok
            rows[j][i] = _reciprocal(tok)
    return "%d\n%s\n" % (n, "\n".join(" ".join(r) for r in rows))


def _reciprocal(tok):
    a, _, b = tok.partition("/")
    if b:
        return b if a == "1" else "%s/%s" % (b, a)
    if tok.isdigit():
        return "1/" + tok
    return repr(1.0 / float(tok))


def _kept_pairs(n, share, rng):
    """Pairs kept: a random spanning tree plus all but round(share * spare) of the rest."""
    order = rng.permutation(n)
    tree = set()
    for a in range(1, n):
        b = order[rng.integers(a)]
        tree.add(tuple(sorted((int(order[a]), int(b)))))
    rest = [p for p in itertools.combinations(range(n), 2) if p not in tree]
    drop = int(round(share * len(rest)))
    gone = {rest[s] for s in rng.permutation(len(rest))[:drop]}
    return {p for p in itertools.combinations(range(n), 2) if p not in gone}


def round_inputs(seed, number):
    """The matrices of one round, in ROUND order followed by the fixed ones."""
    rng = np.random.default_rng([seed, number])
    out = []
    for n, share, consistent in ROUND:
        kept = _kept_pairs(n, share, rng)
        if consistent:
            w = 10.0 ** rng.uniform(-1.0, 1.0, n)
            upper = {p: repr(float(w[p[0]] / w[p[1]])) if p in kept else None for p in itertools.combinations(range(n), 2)}
        else:
            upper = {}
            for p in itertools.combinations(range(n), 2):
                if p in kept:
                    v = SAATY[rng.integers(len(SAATY))]
                    upper[p] = str(v) if rng.random() < 0.5 else _reciprocal(str(v))
                else:
                    upper[p] = None
        out.append(Matrix(n, upper, consistent))
    return out + FIXED


def _fixed(exponents):
    w = [10.0**e for e in exponents]
    upper = {p: repr(float(w[p[0]] / w[p[1]])) for p in itertools.combinations(range(len(w)), 2)}
    return Matrix(len(w), upper, consistent=True, fixed=True)


FIXED = [_fixed(e) for e in FIXED_EXPONENTS]
