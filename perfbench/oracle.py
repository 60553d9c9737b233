"""Independent recomputation of the fourteen indices, used to check the program's outputs.

Nothing here imports pcindex.  Cycles and paths are enumerated by raw
permutations over vertex sets, priority weights come from
``numpy.linalg.lstsq`` on the edge incidence, and spectral radii from
``numpy.linalg.eigvals``.  Two exact identities keep the cycle and path
terms finite for any ratio: min(|1-R|, |1-1/R|) = 1 - exp(-|ln R|), and
(hi - lo)/((1 + hi)(1 + lo)) = hi/(1 + hi) - lo/(1 + lo).
"""

import functools
import itertools

import numpy as np

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
ALPHA = 0.5
BETA = 0.3

# agreement between the program and the recomputation; CI and Oliva are
# differences of eigenvalues near n and 1, so they get an absolute floor
RTOL = 1e-6
ATOL = 1e-8


def agrees(got, want):
    return bool(np.isfinite(got)) and abs(got - want) <= ATOL + RTOL * abs(want)


class Skeleton:
    """Signed slot rows of every simple cycle and simple path of the complete graph on n vertices.

    Slots are the pairs i < j in lexicographic order.  A row holds +1 where
    the walk goes i -> j over slot (i, j) and -1 where it goes j -> i, so
    ``row @ logvals`` is the log of the cycle ratio or path product.
    """

    def __init__(self, n):
        self.n = n
        self.pairs = list(itertools.combinations(range(n), 2))
        self.iu = np.array([p[0] for p in self.pairs])
        self.ju = np.array([p[1] for p in self.pairs])
        slot = {p: s for s, p in enumerate(self.pairs)}
        ecount = len(self.pairs)

        def row(walk):
            r = np.zeros(ecount, dtype=np.int8)
            for a, b in zip(walk, walk[1:]):
                if a < b:
                    r[slot[(a, b)]] += 1
                else:
                    r[slot[(b, a)]] -= 1
            return r

        cycles = []
        for size in range(3, n + 1):
            for sub in itertools.combinations(range(n), size):
                for rest in itertools.permutations(sub[1:]):
                    if rest[0] < rest[-1]:  # one direction per cycle
                        cycles.append(row((sub[0],) + rest + (sub[0],)))
        paths = []
        owner = []
        for s, (i, j) in enumerate(self.pairs):
            others = [v for v in range(n) if v != i and v != j]
            for length in range(len(others) + 1):
                for mid in itertools.permutations(others, length):
                    paths.append(row((i,) + mid + (j,)))
                    owner.append(s)
        self.cyc = np.array(cycles, dtype=np.int8).reshape(-1, ecount)
        self.cyc_uses = self.cyc != 0
        self.path = np.array(paths, dtype=np.int8)
        self.path_uses = self.path != 0
        self.path_pair = np.array(owner)


@functools.lru_cache(maxsize=None)
def skeleton(n):
    return Skeleton(n)


def indices(n, logvals, mask):
    """The fourteen index values of one matrix, in INDEX_NAMES order.

    ``logvals`` holds ln c_ij for every slot i < j (ignored where the
    comparison is missing); ``mask`` is True where it is present.  The
    comparison graph must be connected.
    """
    sk = skeleton(n)
    logvals = np.asarray(logvals, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    lv = np.where(mask, logvals, 0.0)
    missing = ~mask

    cyc = sk.cyc[~sk.cyc_uses[:, missing].any(axis=1)]
    if len(cyc):
        ks = -np.expm1(-np.abs(cyc @ lv))
        kt, i1, i2 = ks.max(), ks.mean(), np.sqrt((ks**2).sum()) / ks.size
    else:
        kt = i1 = i2 = 0.0

    alive = ~sk.path_uses[:, missing].any(axis=1)
    logp = sk.path[alive] @ lv
    owner = sk.path_pair[alive]
    lo = np.full(len(sk.pairs), np.inf)
    hi = np.full(len(sk.pairs), -np.inf)
    np.minimum.at(lo, owner, logp)
    np.maximum.at(hi, owner, logp)
    sh = 2.0 / (n * (n - 1)) * float((_logistic(hi) - _logistic(lo)).sum())

    inc = np.zeros((int(mask.sum()), n))
    rows = np.arange(inc.shape[0])
    inc[rows, sk.iu[mask]] = 1.0
    inc[rows, sk.ju[mask]] = -1.0
    x = np.linalg.lstsq(inc, logvals[mask], rcond=None)[0]
    x -= x.max()
    resid = logvals[mask] - inc @ x
    s = float(resid @ resid)
    energy = float(logvals[mask] @ logvals[mask])
    fitted_missing = x[sk.iu[missing]] - x[sk.ju[missing]]
    re2 = s / energy if energy > 0.0 else 0.0
    den1 = energy + float(fitted_missing @ fitted_missing)
    re1 = s / den1 if den1 > 0.0 else 0.0
    w = np.exp(x)
    w /= w.sum()

    defined = np.eye(n, dtype=bool)
    defined[sk.iu[mask], sk.ju[mask]] = True
    defined[sk.ju[mask], sk.iu[mask]] = True
    vals = np.zeros((n, n))
    vals[sk.iu[mask], sk.ju[mask]] = np.exp(logvals[mask])
    vals[sk.ju[mask], sk.iu[mask]] = np.exp(-logvals[mask])
    deg = defined.sum(axis=1) - 1.0

    cstar = (vals + np.eye(n)) / (vals + np.eye(n)).sum(axis=0)
    omega = np.where(defined, w[:, None], 0.0)
    gw = float(np.abs(cstar - omega / omega.sum(axis=0)).sum()) / n

    harker = vals + np.diag(n - deg)
    ci = max(0.0, (_radius(harker) - n) / (n - 1))
    oliva = max(0.0, _radius(vals / deg[:, None]) - 1.0)

    return np.array(
        [
            kt,
            i1,
            i2,
            ALPHA * kt + (1.0 - ALPHA) * i1,
            BETA * kt + BETA * i1 + (1.0 - 2.0 * BETA) * i2,
            sh,
            2.0 * s / ((n - 1) * (n - 2)),
            s / mask.sum(),
            gw,
            re1,
            re2,
            ci,
            2.0 * s,
            oliva,
        ]
    )


def _logistic(logx):
    """x/(1 + x) from ln x, without overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * logx))


def _radius(a):
    return float(np.abs(np.linalg.eigvals(a)).max())


def connected(n, pairs, mask):
    """Whether the kept comparisons connect all n vertices (union-find)."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for (i, j), keep in zip(pairs, mask):
        if keep:
            root[find(i)] = find(j)
    return len({find(v) for v in range(n)}) == 1


def rescaled(v0, vk):
    """(I(C) - I(C_k)) / max(I(C), I(C_k)), and 0 where both are 0."""
    top = np.maximum(v0, vk)
    safe = np.where(top > 0.0, top, 1.0)
    return np.where(top > 0.0, (v0 - vk) / safe, 0.0)
