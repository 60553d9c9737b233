"""Inconsistency indices for complete and incomplete PC matrices.

Two families are provided.  The classical suite (``classical_indices``)
applies to complete matrices only and serves as the reference the
incomplete-capable indices must reduce to.  The incomplete-capable
family works on any matrix whose comparison graph is connected and
falls into two groups: matrix-based indices built from simple cycles
and simple paths (max-cycle index, cycle means, their blends, and the
path-range index), and ranking-based indices built from residuals
between entries and derived weight ratios (two least-squares variants,
a column-scaling distance, two relative-error variants, the auxiliary
eigenvalue index, the optimal-completion least-squares value, and a
degree-scaled spectral-radius index).
"""

from typing import NamedTuple

import numpy as np

from .core import NotComplete, NotIrreducible, PCError, is_complete, list_triads
from .graph import (
    build_graph,
    cycle_inconsistency,
    enumerate_cycles,
    enumerate_paths,
    is_irreducible,
    path_product,
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
    "gci_inc",
    "gw_inc",
    "re_inc",
    "harker_ci",
    "lls_index",
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


def _triad_k(c_ik, c_kj, c_ij):
    r = c_ik * c_kj / c_ij
    return min(abs(1.0 - r), abs(1.0 - 1.0 / r))


def classical_indices(m):
    """The ten reference indices of a complete matrix, as a name -> value map.

    CI = (lambda_max - n)/(n - 1); GCI = 2/((n-1)(n-2)) * sum over i<j of
    ln^2(c_ij w_j / w_i) with geometric-mean weights; K is the largest
    triad inconsistency and I1/I2 its mean and scaled quadratic mean over
    all C(n,3) triads; Ialpha and Ialphabeta blend them with the default
    weights of ``blend``; GW scales every column to sum 1 and averages
    the absolute deviation from the priority vector; ISH ranges the
    one-intermediary products c_ik*c_kj over k = 1..n; RE is the share
    of residual energy after fitting the log matrix with row-mean
    differences.
    """
    if not is_complete(m):
        raise NotComplete("classical indices need a complete matrix")
    n = m.n
    v = m.values
    w = gmm(m)

    lam = principal_eigen(v).value
    ci = max(0.0, (lam - n) / (n - 1))

    ks = np.array([_triad_k(t.c_ik, t.c_kj, t.c_ij) for t in list_triads(m)])
    kmax = float(ks.max())
    i1 = float(ks.mean())
    i2 = float(np.sqrt((ks**2).sum()) / ks.size)
    ialpha, ialphabeta = blend(kmax, i1, i2)

    e = v * w[None, :] / w[:, None]
    iu = np.triu_indices(n, 1)
    gci = 2.0 / ((n - 1) * (n - 2)) * float((np.log(e[iu]) ** 2).sum())

    cstar = v / v.sum(axis=0)[None, :]
    gw = float(np.abs(cstar - w[:, None]).sum()) / n

    prods = np.einsum("ik,kj->ijk", v, v)
    rmin = prods.min(axis=2)
    rmax = prods.max(axis=2)
    terms = (rmax - rmin) / ((1.0 + rmax) * (1.0 + rmin))
    ish = 2.0 / (n * (n - 1)) * float(terms[iu].sum())

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


def cycle_based_indices(m, max_cycles=None):
    """Max / mean / scaled quadratic mean of inconsistency over all simple cycles.

    The cycle set is empty exactly when the comparison graph is a tree;
    all three values are then 0 (a tree carries no redundancy, so the
    judgments cannot contradict each other).
    """
    g = build_graph(m)
    if not is_irreducible(g):
        raise NotIrreducible("comparison graph is disconnected")
    cycles = enumerate_cycles(g, max_cycles=max_cycles)
    if not cycles:
        return CycleIndices(0.0, 0.0, 0.0)
    ks = np.array([cycle_inconsistency(g, s) for s in cycles])
    return CycleIndices(
        float(ks.max()),
        float(ks.mean()),
        float(np.sqrt((ks**2).sum()) / ks.size),
    )


def sh_index_inc(m):
    """Path-range index: averaged normalized spread of indirect comparisons.

    For each pair i < j the products along all simple paths from i to j
    form a range [r_lo, r_hi]; the pair contributes
    (r_hi - r_lo)/((1 + r_hi)(1 + r_lo)).  Consistent matrices give zero
    spread, as does any pair connected by a single path.
    """
    g = build_graph(m)
    if not is_irreducible(g):
        raise NotIrreducible("comparison graph is disconnected")
    n = m.n
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            prods = [path_product(g, p) for p in enumerate_paths(g, i, j)]
            r_lo = min(prods)
            r_hi = max(prods)
            total += (r_hi - r_lo) / ((1.0 + r_hi) * (1.0 + r_lo))
    return 2.0 / (n * (n - 1)) * total


def _least_squares(m, w):
    """GCI1, GCI2, GW, RE1, RE2 and LLS from the least-squares weights w.

    One residual pass over the upper triangle: r_ij = ln c_ij - (x_i - x_j)
    with x = ln w on the defined pairs, and the fitted log-ratio x_i - x_j
    alone on the missing ones.  A zero RE denominator means every
    defined entry is 1, so the residuals are 0 too and the value is 0.
    """
    n = m.n
    iu = np.triu_indices(n, 1)
    d = m.defined[iu]
    x = np.log(w)
    fit = x[iu[0]] - x[iu[1]]
    logs = np.log(m.values[iu][d])
    s = float(((logs - fit[d]) ** 2).sum())
    energy = float((logs**2).sum())
    gap = float((fit[~d] ** 2).sum())

    full = m.defined
    v = np.where(full, m.values, 0.0)
    omega = np.where(full, w[:, None], 0.0)
    cstar = v / v.sum(axis=0)[None, :]
    ostar = omega / omega.sum(axis=0)[None, :]

    return {
        "GCI1": 2.0 * s / ((n - 1) * (n - 2)),
        "GCI2": s / logs.size,
        "GW": float(np.abs(np.where(full, cstar - ostar, 0.0)).sum()) / n,
        "RE1": s / (energy + gap) if energy + gap > 0.0 else 0.0,
        "RE2": s / energy if energy > 0.0 else 0.0,
        "LLS": 2.0 * s,
    }


def _variant(name, variant):
    if variant not in ("v1", "v2"):
        raise ValueError("variant must be 'v1' or 'v2', got %r" % (variant,))
    return name + variant[1]


def gci_inc(m, variant="v1"):
    """Geometric-consistency value from least-squares weights, two normalizations.

    variant="v1" divides the summed squared log-residuals by
    (n-1)(n-2)/2; variant="v2" divides by the number of defined pairs.
    They coincide on complete matrices only up to the constant ratio of
    those denominators.
    """
    key = _variant("GCI", variant)
    return _least_squares(m, ills(m))[key]


def gw_inc(m):
    """Column-scaling distance computed over the defined cells only.

    The matrix and a weight-copy pattern (w_i placed at every defined
    cell) are both column-scaled over their defined cells, diagonal
    included, and the mean absolute difference is taken.  Equals the
    classical column-scaling distance on complete input.
    """
    return _least_squares(m, ills(m))["GW"]


def re_inc(m, variant="v1"):
    """Relative-error share of the least-squares fit, two denominators.

    The numerator is the squared log-residual energy over defined cells.
    variant="v1" adds, to the denominator, the log-ratio energy the
    fitted weights assign to the missing cells; variant="v2" uses the
    defined-cell log energy alone.  Both equal the classical
    relative-error index on complete input.
    """
    key = _variant("RE", variant)
    return _least_squares(m, ills(m))[key]


def harker_ci(m):
    """Consistency index from the auxiliary-matrix eigenvalue: (lam - n)/(n - 1).

    Exactly the classical CI on complete input; 0 whenever the defined
    entries admit a consistent completion.
    """
    n = m.n
    lam = harker_rank(m).value
    return max(0.0, (lam - n) / (n - 1))


def lls_index(m):
    """Least-squares criterion value at the optimal completion.

    Missing cells are filled with the fitted weight ratios, so they
    contribute nothing; the value is the summed squared log-residuals
    over all defined ordered pairs (twice the upper-triangle sum).
    """
    return _least_squares(m, ills(m))["LLS"]


def oliva_index(m):
    """Degree-scaled spectral-radius index.

    With missing entries set to 0 and the identity subtracted, the
    spectral radius of D^-1 (C - I) equals 1 exactly on consistent
    matrices (D is the degree matrix); the index is the excess over 1.
    """
    if not is_irreducible(build_graph(m)):
        raise NotIrreducible("comparison graph is disconnected")
    d = m.defined
    s = np.where(d, m.values, 0.0) - np.eye(m.n)
    off = d.copy()
    np.fill_diagonal(off, False)
    deg = off.sum(axis=1).astype(float)
    rho = principal_eigen(s / deg[:, None]).value
    return max(0.0, rho - 1.0)


def all_indices(m, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA):
    """All fourteen incomplete-capable indices as a name -> value map.

    ``alpha`` and ``beta`` are the blend weights of ``blend``.  The
    least-squares weights are computed once and shared by the
    ranking-based indices; results are identical to calling the
    individual functions.  A NaN or infinite value raises
    NonFiniteIndex.
    """
    check_blend(alpha, beta)
    if not is_irreducible(build_graph(m)):
        raise NotIrreducible("comparison graph is disconnected")
    cyc = cycle_based_indices(m)
    ialpha, ialphabeta = blend(*cyc, alpha, beta)
    vals = _least_squares(m, ills(m))
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
