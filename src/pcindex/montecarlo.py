"""Robustness experiment: how much does each index move when comparisons vanish?

The protocol: draw hidden weights and build an exactly consistent
matrix, disturb every upper-triangle entry by a random coefficient
gamma in [1/d, d] for disturbance levels d = 1..d_max, then delete
comparisons one at a time — always picking uniformly among the
deletions that keep the comparison graph connected — so each disturbed
matrix owns a chain C_0 ⊃ C_1 ⊃ ... of incomplete samples.  For every
index the rescaled ordered distance between the complete matrix and
its k-removal sample is averaged over the whole matrix set, giving a
curve D(index, k); the summed absolute curve is the robustness score
(smaller means the index reacts less to missing data).

Runs are deterministic for a given seed regardless of worker count:
each base matrix owns the substream seeded by (seed, ordinal), and the
reduction over bases is a fixed-order sum.
"""

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _fast
from .core import BadSize, NotComplete, NotIrreducible, PCError, PCMatrix, is_complete
from .graph import build_graph, is_irreducible
from .indices import DEFAULT_ALPHA, DEFAULT_BETA, INDEX_NAMES, BadParams, check_blend

__all__ = [
    "BadK",
    "ExperimentConfig",
    "DistanceTable",
    "gen_consistent",
    "disturb",
    "remove_comparisons",
    "run_experiment",
    "distance_csv",
    "totals_csv",
    "ranking",
]


_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# The largest n whose cycle and path tables fit the cycle search's step budget.
FREE_ENUMERATION_LIMIT = 8


class BadK(PCError):
    """Removal count outside 0..(defined pairs - spanning tree size)."""


def _as_int(name, value):
    """value as a Python int; BadParams unless it is an int or a numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadParams("%s must be an integer, got %r" % (name, value))
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one experiment run.

    alpha parametrizes the max/mean blend; beta is the shared leading
    weight of the max/mean/rms blend.  weight_range bounds the hidden
    weights (log-uniform on [1/weight_range, weight_range]), so
    consistent entries stay within weight_range**2.  The disturbance
    coefficient is drawn uniformly from [1/d, d]; with
    independent_removals each k gets a fresh removal set instead of the
    default nested chain.  The counts and the seed must be integers
    (Python or numpy, not bool) and the seed non-negative,
    independent_removals a bool (Python or numpy), n stops at
    the largest size with cycle and path tables, and weight_range**4 *
    d_max**(2*(n-1)) must be a finite float; all are checked here,
    before any work starts.
    """

    n: int = 7
    base_matrices: int = 1000
    d_max: int = 30
    removals_max: int = 15
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    seed: int = 0
    weight_range: float = 3.0
    independent_removals: bool = False

    def __post_init__(self):
        for name in ("n", "base_matrices", "d_max", "removals_max", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if not isinstance(self.independent_removals, (bool, np.bool_)):
            raise BadParams("independent_removals must be a bool, got %r" % (self.independent_removals,))
        object.__setattr__(self, "independent_removals", bool(self.independent_removals))
        if self.seed < 0:
            raise BadParams("seed must be non-negative, got %r" % (self.seed,))
        if not 3 <= self.n <= FREE_ENUMERATION_LIMIT:
            raise BadParams(
                "n must lie in 3..%d (cycle and path tables), got %r"
                % (FREE_ENUMERATION_LIMIT, self.n)
            )
        if self.base_matrices < 1:
            raise BadParams("base_matrices must be positive, got %r" % (self.base_matrices,))
        if self.d_max < 1:
            raise BadParams("d_max must be at least 1, got %r" % (self.d_max,))
        spare = self.n * (self.n - 1) // 2 - (self.n - 1)
        if not 0 <= self.removals_max <= spare:
            raise BadParams(
                "removals_max must lie in 0..%d for n=%d, got %r"
                % (spare, self.n, self.removals_max)
            )
        check_blend(self.alpha, self.beta)
        if not self.weight_range >= 1.0:
            raise BadParams("weight_range must be >= 1, got %r" % (self.weight_range,))
        # the largest path product is weight_range**2 * d_max**(n-1), and SH
        # multiplies two of them; its square must stay a finite float
        top = 2.0 * math.log(self.weight_range) + (self.n - 1) * math.log(self.d_max)
        if not 2.0 * top < _LOG_FLOAT_MAX:
            raise BadParams(
                "weight_range %r with d_max=%d and n=%d overflows floats: need "
                "weight_range**4 * d_max**(2*(n-1)) below %.3g"
                % (self.weight_range, self.d_max, self.n, sys.float_info.max)
            )


@dataclass(frozen=True)
class DistanceTable:
    """Mean rescaled distances D[index][k] plus the per-index totals."""

    index_names: tuple
    removals_max: int
    d: np.ndarray  # (len(index_names), removals_max + 1)
    totals: np.ndarray  # (len(index_names),)

    def value(self, index, k):
        return float(self.d[self.index_names.index(index), k])

    def total(self, index):
        return float(self.totals[self.index_names.index(index)])


def gen_consistent(n, rng, weight_range=3.0):
    """Exactly consistent complete matrix from hidden log-uniform weights.

    The weights lie in [1/weight_range, weight_range], which must be
    finite and at least 1, with weight_range**2 (the widest ratio) a
    finite float too (BadParams otherwise).
    """
    if n < 3:
        raise BadSize("need at least 3 alternatives, got %d" % n)
    if not 1.0 <= weight_range < math.inf:
        raise BadParams("weight_range must be finite and >= 1, got %r" % (weight_range,))
    span = math.log(weight_range)
    if not 2.0 * span < _LOG_FLOAT_MAX:
        raise BadParams(
            "weight_range**2 must be a finite float, got weight_range %r" % (weight_range,)
        )
    u = np.exp(rng.uniform(-span, span, n))
    return PCMatrix(u[:, None] / u[None, :])


def disturb(m, d, rng):
    """Multiply each upper-triangle entry by its own gamma, uniform on [1/d, d].

    d = 1 leaves the matrix unchanged (gamma is identically 1, and the
    draws still consume the same amount of randomness, so streams stay
    aligned across disturbance levels).  No clipping to any scale.  A d
    below 1 or not finite raises BadParams, and so does a disturbed
    entry that, or whose reciprocal, is not a positive finite float.
    """
    if not is_complete(m):
        raise NotComplete("disturbance needs a complete matrix")
    if not 1 <= d < math.inf:
        raise BadParams("disturbance level must be finite and >= 1, got %r" % (d,))
    iu = np.triu_indices(m.n, 1)
    gamma = rng.uniform(1.0 / d, float(d), iu[0].size)
    v = m.values.copy()
    with np.errstate(divide="ignore", over="ignore"):
        up = v[iu] * gamma
        recip = 1.0 / up
    if not (np.isfinite(up) & (up > 0.0) & np.isfinite(recip) & (recip > 0.0)).all():
        raise BadParams(
            "disturbance level %r leaves an entry or its reciprocal outside the positive"
            " floats" % (d,)
        )
    v[iu] = up
    return PCMatrix(v)


def _bridges(n, adj, edges):
    """Bridge edges of a connected graph as a set of (min, max) pairs.

    ``adj[v]`` is the neighbour bitmask of vertex v and ``edges`` the
    number of edges the graph has.  A BFS tree from
    vertex 0, then one pass in reverse BFS order: each vertex hands its
    parent its subtree mask and the OR of its subtree's neighbour masks.
    The tree edge (x, p) is a bridge iff it is the only edge leaving x's
    subtree, that is iff p is the subtree's only outside neighbour: a
    BFS edge joins depths at most one apart, so no vertex below x can
    touch p.  A non-tree edge closes a cycle with the tree, so it is
    never a bridge.  O(n) integer operations, no recursion.

    A graph that lacks at most n - 3 edges of K_n is answered before the
    search: every cut of K_n has at least n - 1 edges, so each of its
    cuts keeps two of them and no edge is a bridge.
    """
    if edges >= n * (n - 1) // 2 - (n - 3):
        return set()
    parent = [0] * n
    order = [0]
    seen = 1
    for v in order:
        new = adj[v] & ~seen
        seen |= new
        while new:
            low = new & -new
            u = low.bit_length() - 1
            parent[u] = v
            order.append(u)
            new ^= low
    sub = [1 << v for v in range(n)]
    reach = list(adj)  # becomes the OR of the neighbour masks over x's subtree
    found = set()
    for x in reversed(order[1:]):
        p = parent[x]
        if reach[x] & ~sub[x] == 1 << p:
            found.add((p, x) if p < x else (x, p))
        sub[p] |= sub[x]
        reach[p] |= reach[x]
    return found


def _chain_step(bit_of, adj, live, rng):
    """Slot of the next comparison to drop: uniform over the live non-bridges.

    ``live`` has bit s set while slot s is defined, ``adj`` holds the
    same graph as neighbour bitmasks and ``bit_of`` maps a pair to its
    slot bit.  One bridge search; then, with c live non-bridges, the
    draw i = rng.integers(c) picks the i-th of them in slot order.
    Shared by the public removal operation and the fast experiment path
    so both consume the random stream identically.
    """
    cands = live
    for e in _bridges(len(adj), adj, live.bit_count()):
        cands &= ~bit_of[e]
    i = int(rng.integers(cands.bit_count()))
    for _ in range(i):
        cands &= cands - 1
    return (cands & -cands).bit_length() - 1


def _drop(pairs, bit_of, adj, live, k, rng):
    """Slots of k successive removals from the graph (adj, live), in draw order; updates adj."""
    order = []
    for _ in range(k):
        s = _chain_step(bit_of, adj, live, rng)
        a, b = pairs[s]
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
        live ^= 1 << s
        order.append(s)
    return order


def _slot_bits(pairs):
    """Pair -> bit of its slot, the ``bit_of`` map of ``_chain_step``."""
    return {p: 1 << s for s, p in enumerate(pairs)}


def remove_comparisons(m, k, rng):
    """Drop k comparisons, each step uniform among connectivity-preserving ones.

    Accepts incomplete (but irreducible) input so chains can be extended
    one removal at a time; the output always has exactly k fewer defined
    pairs and stays irreducible.  k must be an integer (Python or numpy,
    not bool) in 0..(defined pairs - (n - 1)); BadK otherwise.
    """
    n = m.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graph = build_graph(m)
    rows = graph.tolist()
    alive = [s for s, (i, j) in enumerate(pairs) if rows[i][j]]
    spare = len(alive) - (n - 1)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0 or k > spare:
        raise BadK("k must lie in 0..%d for this matrix, got %r" % (max(spare, 0), k))
    if not is_irreducible(graph):
        raise NotIrreducible("comparison graph is disconnected")
    adj = [sum(1 << u for u, arc in enumerate(row) if arc) for row in rows]
    live = sum(1 << s for s in alive)
    defined = m.defined.copy()
    for s in _drop(pairs, _slot_bits(pairs), adj, live, k, rng):
        i, j = pairs[s]
        defined[i, j] = defined[j, i] = False
    return PCMatrix(m.values.copy(), defined)


def _chain_masks(n, pairs, removals_max, rng, independent):
    """Mask rows for k = 0..removals_max removals (nested chain by default).

    Row k drops one comparison from row k-1; with ``independent`` it
    drops k comparisons from the complete row 0 instead.  The removals
    run on bitmasks (``_chain_step``) from K_n, once or afresh for every
    k, and the boolean rows are written from the slots they drop.
    """
    bit_of = _slot_bits(pairs)
    kn = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    full = (1 << len(pairs)) - 1
    rows = np.ones((removals_max + 1, len(pairs)), dtype=bool)
    if independent:
        for k in range(1, removals_max + 1):
            rows[k, _drop(pairs, bit_of, list(kn), full, k, rng)] = False
    else:
        for k, s in enumerate(_drop(pairs, bit_of, kn, full, removals_max, rng), 1):
            rows[k:, s] = False
    return rows


def _stream_values(cfg, b):
    """Yield (d, masks, values) for base matrix b of the configured stream.

    ``values`` is the (removals_max + 1, 14) table of index values along
    the removal chain of disturbance level d.  The draw order per base
    is fixed: n weights, then per level E gammas followed by the removal
    choices — the public operations consume randomness the same way, so
    the two routes can be replayed against each other.
    """
    t = _fast.get_tables(cfg.n)
    rng = np.random.default_rng((cfg.seed, b))
    span = math.log(cfg.weight_range)
    logw = rng.uniform(-span, span, cfg.n)
    lv0 = _fast.consistent_logvals(t, logw)
    for d in range(1, cfg.d_max + 1):
        lg = np.log(rng.uniform(1.0 / d, float(d), lv0.size))
        masks = _chain_masks(cfg.n, t.pairs, cfg.removals_max, rng, cfg.independent_removals)
        vals = _fast.indices_for_masks(t, lv0 + lg, masks, cfg.alpha, cfg.beta)
        yield d, masks, vals


def _delta_rows(vals):
    """Rescaled distances of every chain row against row 0."""
    v0 = vals[0]
    top = np.maximum(vals, v0[None, :])
    out = np.zeros_like(vals)
    np.divide(v0[None, :] - vals, top, out=out, where=top > 0.0)
    return out


def _base_deltas(cfg, b):
    acc = np.zeros((cfg.removals_max + 1, len(INDEX_NAMES)))
    for _d, _masks, vals in _stream_values(cfg, b):
        acc += _delta_rows(vals)
    return acc


def run_experiment(cfg, threads=1):
    """Full distance table for the configured run.

    ``threads`` only spreads base matrices over worker processes; the
    result is bit-identical for any worker count because substreams are
    per-base and the reduction order is fixed.  A count below 1 or one
    that is not an integer raises BadParams.
    """
    threads = _as_int("threads", threads)
    if threads < 1:
        raise BadParams("threads must be positive, got %r" % (threads,))
    _fast.get_tables(cfg.n)  # build once; forked workers inherit the cache
    acc = np.zeros((cfg.removals_max + 1, len(INDEX_NAMES)))
    if threads == 1:
        for b in range(cfg.base_matrices):
            acc += _base_deltas(cfg, b)
    else:
        # imported on demand, so that importing pcindex does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, cfg.base_matrices // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as ex:
            for part in ex.map(partial(_base_deltas, cfg), range(cfg.base_matrices), chunksize=chunk):
                acc += part
    d = (acc / (cfg.base_matrices * cfg.d_max)).T
    totals = np.abs(d).sum(axis=1)
    d.flags.writeable = False
    totals.flags.writeable = False
    return DistanceTable(tuple(INDEX_NAMES), cfg.removals_max, d, totals)


def ranking(table):
    """(index, total) pairs sorted ascending by total, ties by name order."""
    order = sorted(range(len(table.index_names)), key=lambda i: (table.totals[i], i))
    return [(table.index_names[i], float(table.totals[i])) for i in order]


def _fmt(x):
    return "%.6g" % x


def distance_csv(table):
    """CSV text of the D(index, k) grid: header index,k,D; 6 significant digits."""
    lines = ["index,k,D"]
    for i, name in enumerate(table.index_names):
        for k in range(table.removals_max + 1):
            lines.append("%s,%d,%s" % (name, k, _fmt(table.d[i, k])))
    return "\n".join(lines) + "\n"


def totals_csv(table):
    """CSV text of the per-index totals: header index,total."""
    lines = ["index,total"]
    for i, name in enumerate(table.index_names):
        lines.append("%s,%s" % (name, _fmt(table.totals[i])))
    return "\n".join(lines) + "\n"
