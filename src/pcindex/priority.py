"""Priority vectors: eigenvector and least-squares ranking methods.

Complete matrices support the principal-eigenvector method (EVM) and the
geometric-mean method (GMM).  Incomplete matrices support Harker's
auxiliary-matrix eigenvector method and the incomplete logarithmic
least-squares method (ILLS), which solves a graph-Laplacian system for
log-weights and reduces to GMM when nothing is missing.  All methods
return weights normalized to sum 1.
"""

from typing import NamedTuple

import numpy as np

from .core import NotComplete, NotIrreducible, PCError, is_complete
from .graph import build_graph, is_irreducible

__all__ = [
    "EigenResult",
    "NotConverged",
    "ReducibleInput",
    "SingularSystem",
    "principal_eigen",
    "evm",
    "gmm",
    "harker_matrix",
    "harker_rank",
    "ills",
]

EIGEN_TOL = 1e-13
EIGEN_MAX_ITER = 100000
# iterates per stopping test: on analyze's inputs 4 lost to per-block overhead and
# 32 to steps wasted past convergence; 8, 12 and 16 tied
_EIGEN_BLOCK = 8


class NotConverged(PCError):
    """Power iteration failed to converge within the iteration budget."""


class ReducibleInput(PCError):
    """The matrix is reducible; no unique positive principal pair exists."""


class SingularSystem(PCError):
    """The least-squares normal equations are singular."""


class EigenResult(NamedTuple):
    """Principal eigenvalue and its positive eigenvector (normalized to sum 1)."""

    value: float
    vector: np.ndarray


def principal_eigen(A, max_iter=EIGEN_MAX_ITER):
    """Perron pair of a nonnegative irreducible matrix by power iteration.

    Iterates on A + I; the shift makes the dominant eigenvalue strictly
    separated in modulus even for periodic patterns (e.g. trees), so the
    iteration always converges for irreducible input.  The shift is
    subtracted from the reported eigenvalue.  Starts from the uniform
    vector for reproducibility; stops at the first normalized iterate w
    that moves by at most ``EIGEN_TOL * max(w)`` from its predecessor.
    The steps run ``_EIGEN_BLOCK`` at a time and the stopping rule is
    tested once per block, on every iterate of the block, so the result
    is that first iterate to the bit, as if tested after every step; the
    up to ``_EIGEN_BLOCK - 1`` steps past it are wasted.  At most
    ``max_iter`` steps run; it must be a positive integer (Python or
    numpy, not bool), ValueError otherwise.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError("max_iter must be a positive integer, got %r" % (max_iter,))
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError("expected a nonempty square matrix, got shape %s" % (A.shape,))
    if (A < 0).any() or not np.isfinite(A).all():
        raise ValueError("matrix must be nonnegative and finite")
    n = A.shape[0]
    if not (is_irreducible(A > 0) and is_irreducible(A.T > 0)):
        raise ReducibleInput("matrix has a reducible nonzero pattern")
    M = A + np.eye(n)
    # row 0 holds the last iterate of the previous block, rows 1.. this block's
    block = np.empty((_EIGEN_BLOCK + 1, n))
    block[0] = 1.0 / n
    rows = list(block)
    done = 0
    while done < max_iter:
        steps = min(_EIGEN_BLOCK, max_iter - done)
        for s in range(1, steps + 1):
            w = rows[s]
            np.matmul(M, rows[s - 1], out=w)
            w /= np.add.reduce(w)
        new = block[1 : steps + 1]
        stop = np.abs(new - block[:steps]).max(axis=1) <= EIGEN_TOL * new.max(axis=1)
        if stop.any():
            w = new[stop.argmax()].copy()
            lam = float((M @ w).sum())  # w sums to 1, so this is the Rayleigh-like estimate
            return EigenResult(lam - 1.0, w)
        block[0] = block[steps]
        done += steps
    raise NotConverged("power iteration did not converge in %d iterations" % max_iter)


def evm(m):
    """Eigenvector priorities of a complete matrix (principal right eigenvector)."""
    if not is_complete(m):
        raise NotComplete("the eigenvector method needs a complete matrix")
    return principal_eigen(m.values).vector


def gmm(m):
    """Geometric-mean priorities of a complete matrix: w_i ~ (prod_j c_ij)^(1/n)."""
    if not is_complete(m):
        raise NotComplete("the geometric-mean method needs a complete matrix")
    w = np.exp(np.log(m.values).mean(axis=1))
    return w / w.sum()


def harker_matrix(m):
    """Harker's auxiliary matrix B: missing -> 0, b_ii = 1 + (missing count in row i)."""
    d = m.defined
    B = np.where(d, m.values, 0.0)
    miss = (~d).sum(axis=1)
    np.fill_diagonal(B, 1.0 + miss)
    return B


def harker_rank(m):
    """Principal pair of Harker's auxiliary matrix (works on incomplete input).

    On complete input B equals the matrix itself, so this coincides with
    the plain eigenvector method.  The eigenvalue is n exactly when the
    defined entries admit a consistent completion.
    """
    if not is_irreducible(build_graph(m)):
        raise NotIrreducible("comparison graph is disconnected")
    return principal_eigen(harker_matrix(m))


def ills(m, log=False):
    """Incomplete logarithmic least-squares priorities.

    Minimizes sum over defined i != j of (ln c_ij - x_i + x_j)^2 in the
    log-weights x, which yields the graph-Laplacian normal equations
    L x = g with L = degrees - adjacency over defined pairs and
    g_i = sum of ln c_ij over row i's defined entries.  The solution is
    anchored at x_1 = 0 by eliminating the first row and column.  With
    ``log`` that x is returned as it is, so a caller that needs the fitted
    log-ratios x_i - x_j never takes the log of an underflowed weight;
    otherwise the weights exp(x - max x) are normalized to sum 1.  On a
    complete matrix this is exactly the geometric-mean vector; on a
    consistent matrix it reproduces every defined ratio.
    """
    adj = build_graph(m)
    if not is_irreducible(adj):
        raise NotIrreducible("comparison graph is disconnected")
    n = m.n
    deg = adj.sum(axis=1)
    logs = np.zeros((n, n))
    logs[adj] = np.log(m.values[adj])
    g = logs.sum(axis=1)
    lap = np.diag(deg.astype(float)) - adj.astype(float)
    try:
        x_rest = np.linalg.solve(lap[1:, 1:], g[1:])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    x = np.concatenate(([0.0], x_rest))
    if log:
        return x
    w = np.exp(x - x.max())
    return w / w.sum()
