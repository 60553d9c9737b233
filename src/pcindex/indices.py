"""Inconsistency indices for complete and incomplete PC matrices.

Two families are provided.  The classical suite (``classical_indices``)
applies to complete matrices only and serves as the reference the
incomplete-capable indices must reduce to.  The incomplete-capable
family works on any matrix whose comparison graph is connected and
falls into three groups: matrix-based indices built from simple cycles
and simple paths (``cycle_based_indices`` for the max-cycle index and
the cycle means, ``blend`` for their blends, ``sh_index_inc`` for the
path-range index); the six indices of one least-squares fit
(``least_squares_indices``: two GCI normalizations, a column-scaling
distance, two relative-error denominators and the optimal-completion
least-squares value); and two spectral indices (``harker_ci``,
``oliva_index``).

Each closed form is written once, in a private helper over values that
are already computed (cycle values, per-pair path extremes, residuals,
dense column-scaled matrices), with its reductions on the last axes.
The functions here apply the helpers to one matrix, whose inputs come
from enumerated cycles and paths and a dense ILLS solve; ``_fast``
applies the same helpers to a whole removal chain at once.  A cycle
ratio or path product is taken as the sum of the log-entries ln c_ij
along the enumerated walk, gathered by numpy indexing for many walks
at once, so no product of raw ratios is formed along the way.
"""

from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .core import NotComplete, NotIrreducible, PCError, is_complete
from .graph import (
    _ratio_inconsistency,
    build_graph,
    enumerate_cycles,
    enumerate_paths,
    is_irreducible,
)
from .priority import gmm, harker_rank, ills, principal_eigen

__all__ = [
    "INDEX_NAMES",
    "CLASSICAL_NAMES",
    "BadParams",
    "NonFiniteIndex",
    "CycleIndices",
    "check_blend",
    "blend",
    "classical_indices",
    "cycle_based_indices",
    "sh_index_inc",
    "least_squares_indices",
    "harker_ci",
    "oliva_index",
    "all_indices",
]

# Stable names used in CSV/JSON output, in canonical order.
INDEX_NAMES = (
    "Ktilde",
    "I1",
    "I2",
    "Ialpha",
    "Ialphabeta",
    "SH",
    "GCI1",
    "GCI2",
    "GW",
    "RE1",
    "RE2",
    "CI",
    "LLS",
    "Oliva",
)

CLASSICAL_NAMES = ("CI", "GCI", "K", "I1", "I2", "Ialpha", "Ialphabeta", "GW", "ISH", "RE")

DEFAULT_ALPHA = 0.5  # weight of the max-cycle term in the alpha blend
DEFAULT_BETA = 0.3  # shared weight of max and mean terms in the alpha-beta blend


class BadParams(PCError):
    """Blend parameters outside their valid range."""


class NonFiniteIndex(PCError):
    """An index value came out as NaN or infinity."""


def check_blend(alpha, beta):
    """Reject blend weights outside 0 <= alpha <= 1 and 0 <= beta <= 1/2, NaN included."""
    if not 0.0 <= alpha <= 1.0:
        raise BadParams("alpha must lie in [0, 1], got %r" % (alpha,))
    if not 0.0 <= beta <= 0.5:
        raise BadParams("beta must lie in [0, 1/2], got %r" % (beta,))


def blend(kt, i1, i2, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA):
    """(Ialpha, Ialphabeta) from the max, mean and scaled rms cycle inconsistency.

    Ialpha = alpha*Ktilde + (1-alpha)*I1 and Ialphabeta = beta*Ktilde +
    beta*I1 + (1-2*beta)*I2, so beta is the shared weight of Ktilde and
    I1.  Works elementwise on arrays as well as on floats.
    """
    return alpha * kt + (1.0 - alpha) * i1, beta * kt + beta * i1 + (1.0 - 2.0 * beta) * i2


def _finite(vals):
    """Return the name -> value map, or raise NonFiniteIndex naming every NaN or inf."""
    bad = [k for k, v in vals.items() if not np.isfinite(v)]
    if bad:
        raise NonFiniteIndex("non-finite index value(s): %s" % ", ".join(bad))
    return vals


class CycleIndices(NamedTuple):
    """Max, mean, and scaled quadratic mean of cycle inconsistencies."""

    ktilde: float
    i1: float
    i2: float


def _cycle_stats(ks):
    """(Ktilde, I1, I2) of the cycle values ks, all 0 when there are none."""
    i1, i2 = _cycle_means(ks.sum(), (ks**2).sum(), ks.size)
    return CycleIndices(float(ks.max(initial=0.0)), float(i1), float(i2))


def _cycle_means(total, squares, count):
    """(I1, I2) from the sum, sum of squares and count of the cycle values; 0 where count is 0."""
    per = np.maximum(count, 1)
    return total / per, np.sqrt(squares) / per


def _sh(n, lo, hi):
    """SH from the per-pair extreme indirect comparisons lo and hi (last axis: pairs i < j)."""
    return 2.0 / (n * (n - 1)) * ((hi - lo) / ((1.0 + hi) * (1.0 + lo))).sum(axis=-1)


def _residual_indices(n, logs, fit, defined):
    """(GCI1, GCI2, RE1, RE2, LLS) over the upper-triangle slots (last axis).

    ``logs`` are the log-entries ln c_ij, ``fit`` the fitted log-ratios
    x_i - x_j and ``defined`` marks the slots present; the residual is
    ln c_ij - (x_i - x_j) on those, and a missing slot adds its fit^2 to
    RE1's denominator.  A zero RE denominator means every defined
    log-entry is 0, so every residual is 0 too and the value is 0; a NaN
    one is divided through, so the value stays NaN.
    """
    s = np.where(defined, (logs - fit) ** 2, 0.0).sum(axis=-1)
    energy = np.where(defined, logs**2, 0.0).sum(axis=-1)
    total = energy + np.where(defined, 0.0, fit**2).sum(axis=-1)
    return (
        2.0 * s / ((n - 1) * (n - 2)),
        s / defined.sum(axis=-1),
        np.divide(s, total, out=np.zeros_like(s), where=total != 0.0),
        np.divide(s, energy, out=np.zeros_like(s), where=energy != 0.0),
        2.0 * s,
    )


def _gw(v, defined, w):
    """GW from dense (..., n, n) entries v (0 where missing), their mask and weights (..., n).

    The matrix and a weight-copy pattern (w_i at every defined cell) are
    both column-scaled over their defined cells, diagonal included, and
    the mean absolute difference is taken.
    """
    omega = np.where(defined, w[..., :, None], 0.0)
    cstar = v / v.sum(axis=-2)[..., None, :]
    ostar = omega / omega.sum(axis=-2)[..., None, :]
    return np.abs(cstar - ostar).sum(axis=(-2, -1)) / v.shape[-1]


def _log_entries(m):
    """Dense n x n log-entries ln c_ij, 0 on the diagonal and where missing."""
    return np.log(np.where(m.defined, m.values, 1.0))


def _walk_logs(logs, paths):
    """Sum of the hop log-entries along each path, a tuple of its vertices.

    The paths are flattened into one vertex array and all their hops'
    log-entries are gathered at once; the last vertex of a path ends on
    the diagonal entry ln c_jj = 0.
    """
    lens = np.fromiter(map(len, paths), np.intp, len(paths))
    ends = np.cumsum(lens)
    flat = np.fromiter(chain.from_iterable(paths), np.intp, ends[-1])
    nxt = np.empty_like(flat)
    nxt[:-1] = flat[1:]
    nxt[ends - 1] = flat[ends - 1]
    return np.add.reduceat(logs[flat, nxt], ends - lens)


def classical_indices(m):
    """The ten reference indices of a complete matrix, as a name -> value map.

    CI = (lambda_max - n)/(n - 1); GCI = 2/((n-1)(n-2)) * sum over i<j of
    ln^2(c_ij w_j / w_i) with geometric-mean weights; K is the largest
    triad inconsistency and I1/I2 its mean and scaled quadratic mean over
    all C(n,3) triads i < k < j, at any n (no enumeration budget); Ialpha
    and Ialphabeta blend them with the default weights of ``blend``; GW
    scales every column to sum 1 and averages the absolute deviation from
    the priority vector; ISH ranges the one-intermediary products
    c_ik*c_kj over k = 1..n; RE is the share of residual energy after
    fitting the log matrix with row-mean differences.
    """
    if not is_complete(m):
        raise NotComplete("classical indices need a complete matrix")
    n = m.n
    v = m.values
    w = gmm(m)

    lam = principal_eigen(v).value
    ci = max(0.0, (lam - n) / (n - 1))

    i, k, j = np.array(list(combinations(range(n), 3))).T
    r = v[i, k] * v[k, j] / v[i, j]
    kmax, i1, i2 = _cycle_stats(_ratio_inconsistency(r))
    ialpha, ialphabeta = blend(kmax, i1, i2)

    e = v * w[None, :] / w[:, None]
    iu = np.triu_indices(n, 1)
    gci = 2.0 / ((n - 1) * (n - 2)) * float((np.log(e[iu]) ** 2).sum())

    cstar = v / v.sum(axis=0)[None, :]
    gw = float(np.abs(cstar - w[:, None]).sum()) / n

    prods = np.einsum("ik,kj->ijk", v, v)
    ish = float(_sh(n, prods.min(axis=2)[iu], prods.max(axis=2)[iu]))

    chat = np.log(v)
    delta = chat.mean(axis=1)
    resid = chat - (delta[:, None] - delta[None, :])
    denom = float((chat**2).sum())
    re = float((resid**2).sum()) / denom if denom > 0 else 0.0

    return _finite({
        "CI": ci,
        "GCI": gci,
        "K": kmax,
        "I1": i1,
        "I2": i2,
        "Ialpha": ialpha,
        "Ialphabeta": ialphabeta,
        "GW": gw,
        "ISH": ish,
        "RE": re,
    })


def cycle_based_indices(m):
    """Max / mean / scaled quadratic mean of inconsistency over all simple cycles.

    The cycle set is empty exactly when the comparison graph is a tree;
    all three values are then 0 (a tree carries no redundancy, so the
    judgments cannot contradict each other).  Each cycle's log ratio is
    summed hop by hop down the columns of the padded closed walks of
    ``enumerate_cycles``; a hop onto the padding vertex n reads 0.
    """
    adj = build_graph(m)
    if not is_irreducible(adj):
        raise NotIrreducible("comparison graph is disconnected")
    walks = enumerate_cycles(adj)
    logs = np.zeros((m.n + 1, m.n + 1))
    logs[:-1, :-1] = _log_entries(m)
    # the first hop goes in last: up to 8 hops, each sum then rounds
    # exactly as np.add.reduce over the walk's hops does
    log_r = np.zeros(len(walks))
    for a, b in zip(walks.T[1:-1], walks.T[2:]):
        log_r += logs[a, b]
    log_r += logs[walks[:, 0], walks[:, 1]]
    return _cycle_stats(_ratio_inconsistency(np.exp(log_r)))


def sh_index_inc(m):
    """Path-range index: averaged normalized spread of indirect comparisons.

    For each pair i < j the products along all simple paths from i to j
    form a range [r_lo, r_hi]; the pair contributes
    (r_hi - r_lo)/((1 + r_hi)(1 + r_lo)).  Consistent matrices give zero
    spread, as does any pair connected by a single path.
    """
    adj = build_graph(m)
    if not is_irreducible(adj):
        raise NotIrreducible("comparison graph is disconnected")
    n = m.n
    logs = _log_entries(m)
    lo = []
    hi = []
    for i in range(n):
        for j in range(i + 1, n):
            log_p = _walk_logs(logs, enumerate_paths(adj, i, j))
            lo.append(log_p.min())
            hi.append(log_p.max())
    return float(_sh(n, np.exp(lo), np.exp(hi)))


def least_squares_indices(m):
    """GCI1, GCI2, GW, RE1, RE2 and LLS from one least-squares fit, as a name -> value map.

    With ILLS log-weights x, the residual of a defined pair is
    r_ij = ln c_ij - (x_i - x_j) and s is the sum of r_ij^2 over i < j.
    GCI1 = 2s/((n-1)(n-2)) and GCI2 = s/(defined pairs); LLS = 2s, the
    least-squares criterion at the optimal completion (missing cells
    filled with the fitted ratios contribute nothing).  RE2 divides s by
    the defined-cell log energy, RE1 adds to that denominator the fitted
    log-ratio energy of the missing cells.  GW is the column-scaling
    distance over the defined cells.  On complete input GCI1, GW, RE1
    and RE2 equal their classical counterparts.  Nothing is enumerated,
    so any n works.
    """
    x = ills(m, log=True)
    iu = np.triu_indices(m.n, 1)
    gci1, gci2, re1, re2, lls = _residual_indices(
        m.n, np.log(m.values[iu]), x[iu[0]] - x[iu[1]], m.defined[iu]
    )
    # GW scales the weights per column, so they need no normalization
    gw = _gw(np.where(m.defined, m.values, 0.0), m.defined, np.exp(x - x.max()))
    return {
        "GCI1": float(gci1),
        "GCI2": float(gci2),
        "GW": float(gw),
        "RE1": float(re1),
        "RE2": float(re2),
        "LLS": float(lls),
    }


def harker_ci(m):
    """Consistency index from the auxiliary-matrix eigenvalue: (lam - n)/(n - 1).

    Exactly the classical CI on complete input; 0 whenever the defined
    entries admit a consistent completion.
    """
    n = m.n
    lam = harker_rank(m).value
    return max(0.0, (lam - n) / (n - 1))


def oliva_index(m):
    """Degree-scaled spectral-radius index.

    With missing entries set to 0 and the identity subtracted, the
    spectral radius of D^-1 (C - I) equals 1 exactly on consistent
    matrices (D is the degree matrix); the index is the excess over 1.
    """
    adj = build_graph(m)
    if not is_irreducible(adj):
        raise NotIrreducible("comparison graph is disconnected")
    s = np.where(m.defined, m.values, 0.0) - np.eye(m.n)
    deg = adj.sum(axis=1).astype(float)
    rho = principal_eigen(s / deg[:, None]).value
    return max(0.0, rho - 1.0)


def all_indices(m, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA):
    """All fourteen incomplete-capable indices as a name -> value map.

    ``alpha`` and ``beta`` are the blend weights of ``blend``; results
    are identical to calling the individual functions.  A NaN or
    infinite value raises NonFiniteIndex.
    """
    check_blend(alpha, beta)
    if not is_irreducible(build_graph(m)):
        raise NotIrreducible("comparison graph is disconnected")
    cyc = cycle_based_indices(m)
    ialpha, ialphabeta = blend(*cyc, alpha, beta)
    vals = least_squares_indices(m)
    vals.update({
        "Ktilde": cyc.ktilde,
        "I1": cyc.i1,
        "I2": cyc.i2,
        "Ialpha": ialpha,
        "Ialphabeta": ialphabeta,
        "SH": sh_index_inc(m),
        "CI": harker_ci(m),
        "Oliva": oliva_index(m),
    })
    return _finite({k: vals[k] for k in INDEX_NAMES})
