"""Properties every inconsistency index should have, on both routes.

Relabelling the alternatives must not change any index value.  The
reference route (``all_indices``) is checked on random connected
matrices, complete and incomplete; the table route
(``_fast.indices_for_masks``) on whole removal chains, nested and
independent, whose slots are remapped to the new labels.  Both routes
round differently once the order of the sums changes, so the values
agree to a rounding bound, not bit for bit.

The table route takes CI and Oliva from ``np.linalg.eigvals``, whose
error is absolute, about eps times the matrix norm, so (lambda - n) /
(n - 1) keeps an absolute error near 1e-14 whatever its size: a
relabelled CI of 4.5e-6 moved by 3.1e-10 relative, and one just above
1e-6 by up to 1.7e-9.  Those two columns get EIG_SLACK on top of the
relative bound.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pcindex import INDEX_NAMES, PCMatrix, all_indices
from pcindex import _fast
from pcindex.montecarlo import _chain_masks
from tests.conftest import random_pattern

REL = 1e-9  # relative bound on values of at least FLOOR
FLOOR = 1e-6
ABS = 1e-10  # absolute bound below FLOOR
EIG_SLACK = 1e-13  # absolute allowance of the table route's eigvals indices above FLOOR


def _agree(a, b, slack=0.0):
    """Elementwise: a and b match to REL (plus ``slack``) where either reaches FLOOR, to ABS below."""
    a = np.asarray(a)
    b = np.asarray(b)
    big = np.maximum(np.abs(a), np.abs(b))
    return np.abs(a - b) <= np.where(big >= FLOOR, REL * big + slack, ABS)


def _relabel(m, p):
    """m with alternative a renamed p[a]: entry (p[a], p[b]) of the result is c_ab."""
    q = np.argsort(p)
    return PCMatrix(m.values[np.ix_(q, q)], m.defined[np.ix_(q, q)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reference_route_is_invariant_under_relabelling(data):
    n = data.draw(st.integers(3, 7), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    spare = n * (n - 1) // 2 - (n - 1)
    complete = data.draw(st.booleans(), label="complete")
    extra = spare if complete else data.draw(st.integers(0, spare - 1), label="extra")
    vals = np.ones((n, n))
    iu = np.triu_indices(n, 1)
    vals[iu] = np.exp(rng.uniform(-2.5, 2.5, iu[0].size))
    m = PCMatrix(vals, random_pattern(rng, n, extra))
    p = np.array(data.draw(st.permutations(range(n)), label="p"))
    a = all_indices(m)
    b = all_indices(_relabel(m, p))
    bad = [k for k in INDEX_NAMES if not _agree(a[k], b[k])]
    assert not bad, [(k, a[k], b[k]) for k in bad]


def _relabel_slots(t, p):
    """(slot, sign) per slot: pair (a, b) lands on slot (p[a], p[b]) sorted, negated if it flips."""
    a, b = p[t.iu], p[t.ju]
    slot_of = {pair: s for s, pair in enumerate(t.pairs)}
    new = np.array([slot_of[(min(x, y), max(x, y))] for x, y in zip(a.tolist(), b.tolist())])
    return new, np.where(a < b, 1.0, -1.0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_table_route_is_invariant_under_relabelling(data):
    n = data.draw(st.integers(3, 7), label="n")
    independent = data.draw(st.booleans(), label="independent")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    t = _fast.get_tables(n)
    ecount = len(t.pairs)
    logvals = rng.uniform(-2.5, 2.5, ecount)
    masks = _chain_masks(n, t.pairs, ecount - (n - 1), rng, independent)
    new, sign = _relabel_slots(t, np.array(data.draw(st.permutations(range(n)), label="p")))
    moved_logvals = np.empty(ecount)
    moved_logvals[new] = sign * logvals
    moved_masks = np.empty_like(masks)
    moved_masks[:, new] = masks
    a = _fast.indices_for_masks(t, logvals, masks)
    b = _fast.indices_for_masks(t, moved_logvals, moved_masks)
    slack = np.where(np.isin(INDEX_NAMES, ("CI", "Oliva")), EIG_SLACK, 0.0)
    ok = _agree(a, b, slack)
    assert ok.all(), [(r, INDEX_NAMES[c], a[r, c], b[r, c]) for r, c in zip(*np.nonzero(~ok))]
