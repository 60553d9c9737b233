"""Vectorized index evaluation for the robustness experiment.

The experiment evaluates the same fourteen indices on thousands of
matrices that all share one combinatorial skeleton: the complete graph
on n vertices, thinned edge by edge.  Everything combinatorial — the
canonical simple cycles, the simple paths per pair, and their signed
edge-incidence rows — is tabulated once per n against the complete
graph.  Each concrete matrix then reduces to a vector of C(n,2)
log-entries (upper triangle, lexicographic slot order) plus boolean
masks saying which comparisons are still present, and a whole removal
chain is evaluated with array arithmetic.

The tables are built by the level-synchronous numpy frontier of
``graph`` over the complete graph: the cycles are
``graph.enumerate_cycles`` of K_n's boolean adjacency
``~np.eye(n, dtype=bool)``, under its step budget, and the paths
come from the same frontier with no budget and no closing test.  No
walk becomes a Python object: a level gathers whole walk rows as
``np.void`` items, the paths are ordered by one integer sort key, and
the hop tables are written one hop at a time, so no temporary is as
large as the tables.  A walk's slots are kept three hops to a number
(its slot triples), so a nested chain reads each walk's survival from
one lookup per three hops into a per-chain table of triple minima, and
scoring a chain needs no temporary as large as the tables either.  A
test asserts that the tables list
exactly the cycles and paths of the depth-first oracle in the tests, in
its order, for n = 3..8.  The numeric agreement with the
reference route is pinned separately by tests that run both routes on
the same stream.
Each closed form (cycle statistics, SH, the residual family, GW) is the
private helper in ``indices`` that the reference functions call too,
applied here to all mask rows at once.
"""

import functools
from typing import NamedTuple

import numpy as np

from .core import NotIrreducible
from .graph import _frontier, _ratio_inconsistency, _take_rows, enumerate_cycles
from .indices import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    _cycle_means,
    _cycle_stats,
    _gw,
    _residual_indices,
    _sh,
    blend,
)

__all__ = ["Tables", "get_tables", "consistent_logvals", "indices_for_masks"]

# Walks per slot-triple lookup in a nested chain.  A lookup over a whole
# n = 8 path row would copy its indices to a 438 KB intp array; next to
# the path products of the same size, such copies made the allocator
# return memory after every chain and fault it back in on the next
# (about 180 page faults per chain).  At 8192 walks the copy is 64 KB.
_LOOKUP_CHUNK = 8192


class Tables(NamedTuple):
    """Per-n combinatorial tables over the complete graph.

    ``pairs`` lists the upper-triangle slots in lexicographic order;
    ``iu``/``ju`` are the slot endpoints; ``binc`` is the n x E signed
    vertex-edge incidence.  Cycle and path rows hold signed hop counts
    per slot (so ``rows @ logvals`` is the log cycle ratio / path
    product), and the ``need`` words are bitmasks of the slots a cycle
    or path uses.  Paths are grouped by pair in lexicographic pair
    order; every pair of K_n has the same number of paths, so slot s
    holds the s-th of E equal groups.

    The slot-triple tables ``cyc_triples`` (ceil(n / 3) x cycles) and
    ``path_triples`` (ceil((n - 1) / 3) x paths) hold the slot ids of
    each walk's hops three at a time: hops a, b, c as the one number
    (a * (E + 1) + b) * (E + 1) + c, in the smallest unsigned integer
    type that fits (uint16 for n <= 8).  Shorter cycles and paths, and
    the last triple of a walk whose hop count is not a multiple of 3,
    are padded with the extra slot id E, which no mask can remove.
    ``path_pair`` is the pair (slot) each path connects.  Nested removal
    chains are scored from these alone; the dense rows still give the
    log products.
    """

    n: int
    pairs: tuple
    iu: np.ndarray
    ju: np.ndarray
    binc: np.ndarray
    cyc_rows: np.ndarray
    cyc_need: np.ndarray
    path_rows: np.ndarray
    path_need: np.ndarray
    cyc_triples: np.ndarray
    path_triples: np.ndarray
    path_pair: np.ndarray


@functools.lru_cache(maxsize=None)
def get_tables(n):
    """Build (or fetch cached) tables for size n from the numpy frontier over K_n.

    Raises CycleCapExceeded when ``graph.enumerate_cycles`` of K_n takes
    more than ``graph.MAX_STEPS`` steps, that is for n > 8, before
    building any path.  The frontier's levels are whole-row gathers
    (``graph._take_rows``); the hop tables take one pass per hop, which
    looks up each hop's slot, sign and need bit at the flat index
    a * (n + 1) + b, writes only the hops a walk takes to the dense rows
    and adds the slot as the next base-(E + 1) digit of its triple.
    """
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    ecount = len(pairs)
    iu = np.array([p[0] for p in pairs])
    ju = np.array([p[1] for p in pairs])
    binc = np.zeros((n, ecount))
    binc[iu, np.arange(ecount)] = 1.0
    binc[ju, np.arange(ecount)] = -1.0

    # hop (a, b) -> slot id and sign at flat index a * (n + 1) + b; vertex n
    # pads short walks, and any hop touching it lands on the padding slot E,
    # with sign 0 and need bit 0
    slot_type = np.min_scalar_type(ecount)
    triple_type = np.min_scalar_type((ecount + 1) ** 3 - 1)
    slot_of = np.full((n + 1, n + 1), ecount, dtype=slot_type)
    sign_of = np.zeros((n + 1, n + 1))
    slot_of[iu, ju] = slot_of[ju, iu] = np.arange(ecount)
    sign_of[iu, ju] = 1.0
    sign_of[ju, iu] = -1.0
    slot_flat = slot_of.reshape(-1)
    sign_flat = sign_of.reshape(-1)
    bit_of = np.append(np.uint64(1) << np.arange(ecount, dtype=np.uint64), np.uint64(0))

    def hop_table(walks):
        """Slot triples (ceil(width / 3) x walks), dense rows and need words of padded walks.

        One pass per hop: its slots and signs come from the flat lookups,
        only the hops that a walk really takes are written to ``rows``,
        and each slot is the next base-(E + 1) digit of its triple; the
        digits past the last hop are the padding slot E.
        """
        count, width = walks.shape[0], walks.shape[1] - 1
        v = np.ascontiguousarray(walks.T)
        triples = np.zeros((-(-width // 3), count), dtype=triple_type)
        rows = np.zeros((count, ecount))
        need = np.zeros(count, dtype=np.uint64)
        row_start = np.arange(0, count * ecount, ecount)
        for h in range(width):
            hop = np.multiply(v[h], n + 1, dtype=np.intp)
            hop += v[h + 1]
            slot = slot_flat.take(hop)
            digits = triples[h // 3]
            digits *= ecount + 1
            digits += slot
            used = np.flatnonzero(slot < ecount)
            rows.reshape(-1)[row_start[used] + slot[used]] = sign_flat.take(hop[used])
            need |= bit_of.take(slot)
        for h in range(width, 3 * triples.shape[0]):
            triples[h // 3] *= ecount + 1
            triples[h // 3] += ecount
        return triples, rows, need

    cyc_triples, cyc_rows, cyc_need = hop_table(enumerate_cycles(~np.eye(n, dtype=bool)))
    paths, ends = _path_walks(n)
    path_triples, path_rows, path_need = hop_table(paths)
    path_pair = slot_of[paths[:, 0], ends]

    return Tables(
        n,
        pairs,
        iu,
        ju,
        binc,
        cyc_rows,
        cyc_need,
        path_rows,
        path_need,
        cyc_triples,
        path_triples,
        path_pair,
    )


def _path_walks(n):
    """The simple paths of K_n between pairs i < j, padded with n, in DFS order, and their ends.

    One frontier from every start i covers every end j above it: each
    walk that ends above its start is a path.  The rows are sorted by
    start, end and vertex sequence, that is by pair in slot order and
    within a pair as ``enumerate_paths`` lists them, by one int64 key
    that holds start, end and the vertex sequence as digits in base
    n + 1.  The search has no budget of its own; ``get_tables`` builds
    the cycles first, and their budget already refuses every n > 8.
    """
    out = []
    ends = []
    for k, walks in _frontier(~np.eye(n, dtype=bool), range(n - 1), above=False):
        done = np.flatnonzero(walks[:, k] > walks[:, 0])
        out.append(_take_rows(walks, done)[:, :n])
        ends.append(walks[done, k])
    v = np.concatenate(out)
    end = np.concatenate(ends)
    # the n + 1 digits fit an int64 for n <= 14
    assert (n + 1) ** (n + 1) < 2**63
    key = v[:, 0].astype(np.int64) * (n + 1) + end
    for col in v.T[1:]:
        key = key * (n + 1) + col
    order = np.argsort(key)
    return _take_rows(v, order), end[order]


def consistent_logvals(t, logw):
    """Slot vector of a consistent matrix with hidden log-weights logw."""
    return logw[t.iu] - logw[t.ju]


def indices_for_masks(t, logvals, masks, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA):
    """All fourteen index values for each mask row, in canonical name order.

    ``logvals`` is the (E,) log-entry vector of the underlying complete
    matrix; ``masks`` is (R, E) boolean, True where the comparison is
    kept.  Every mask row must describe a connected graph; a row that
    does not raises NotIrreducible, on either route below.  Returns an
    (R, 14) float array whose columns follow INDEX_NAMES.

    The cycle family and SH take one of two routes, chosen from the
    rows themselves.  When the rows are nested (no row keeps a
    comparison its predecessor dropped, as along a removal chain), a
    slot's life is the number of rows that keep it, and a cycle or path
    is alive exactly in rows 0 .. life - 1, its life being the least
    life over the slots it uses, read from the slot triples.  Per-life
    statistics, accumulated in reverse, then give every row in one
    O(cycles + paths) pass.  Other
    rows (independent removal sets) test every cycle and path against
    the slot bitmasks: the cycle statistics row by row, SH from each
    pair's paths ranked by product once.
    """
    n = t.n
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim == 1:
        masks = masks[None, :]
    rows = masks.shape[0]

    ks = _ratio_inconsistency(np.exp(t.cyc_rows @ logvals))
    pi = t.path_rows @ logvals
    np.exp(pi, out=pi)
    # first, so a disconnected row is refused before the solve sees it
    nested = not (masks[1:] & ~masks[:-1]).any()
    kt, i1, i2, sh = (_by_survival if nested else _by_mask)(t, ks, pi, masks)

    # log least-squares weights for every mask row in one batched solve; the
    # Laplacian's off-diagonals are 0.0 - w, so a missing slot writes +0.0
    w_edge = masks.astype(float)
    deg = masks @ np.abs(t.binc).T  # (R, n) defined off-diagonal count per row
    diag = np.arange(n)
    lap = np.zeros((rows, n, n))
    lap[:, t.iu, t.ju] = lap[:, t.ju, t.iu] = 0.0 - w_edge
    lap[:, diag, diag] = deg
    rhs = (w_edge * logvals[None, :]) @ t.binc.T
    x = np.zeros((rows, n))
    x[:, 1:] = np.linalg.solve(lap[:, 1:, 1:], rhs[:, 1:, None])[:, :, 0]
    w = np.exp(x)
    w /= w.sum(axis=1, keepdims=True)

    gci1, gci2, re1, re2, lls = _residual_indices(n, logvals, x[:, t.iu] - x[:, t.ju], masks)

    # dense matrices per row for the two spectral indices and GW
    b0 = np.zeros((rows, n, n))
    b0[:, t.iu, t.ju] = np.where(masks, np.exp(logvals)[None, :], 0.0)
    b0[:, t.ju, t.iu] = np.where(masks, np.exp(-logvals)[None, :], 0.0)

    harker = b0.copy()
    harker[:, diag, diag] = 1.0 + (n - 1) - deg
    stack = np.concatenate([harker, b0 / deg[:, :, None]], axis=0)
    rho = np.abs(np.linalg.eigvals(stack)).max(axis=1)
    ci = np.maximum(0.0, (rho[:rows] - n) / (n - 1))
    oliva = np.maximum(0.0, rho[rows:] - 1.0)

    vfull = b0.copy()
    vfull[:, diag, diag] = 1.0
    dmask = np.zeros((rows, n, n), dtype=bool)
    dmask[:, t.iu, t.ju] = masks
    dmask[:, t.ju, t.iu] = masks
    dmask[:, diag, diag] = True
    gw = _gw(vfull, dmask, w)

    out = np.empty((rows, 14))
    out[:, 0] = kt
    out[:, 1] = i1
    out[:, 2] = i2
    out[:, 3], out[:, 4] = blend(kt, i1, i2, alpha, beta)
    out[:, 5] = sh
    out[:, 6] = gci1
    out[:, 7] = gci2
    out[:, 8] = gw
    out[:, 9] = re1
    out[:, 10] = re2
    out[:, 11] = ci
    out[:, 12] = lls
    out[:, 13] = oliva
    return out


def _by_mask(t, ks, pi, masks):
    """(Ktilde, I1, I2, SH) per row, testing every cycle and path against the row.

    Every pair of K_n has the same number of paths, so the products are
    an (E, per) array; each pair's paths are ranked by product once per
    chain, and a row's SH extremes are the first and the last path of
    the pair that the row keeps.  A row in which some pair keeps no
    path is disconnected and raises NotIrreducible.
    """
    rows, ecount = masks.shape
    per = t.path_pair.size // ecount
    bits = (masks.astype(np.uint64) << np.arange(ecount, dtype=np.uint64)).sum(axis=1)
    cyc_ok = (t.cyc_need[None, :] & ~bits[:, None]) == 0
    stats = np.empty((4, rows))
    for q in range(rows):
        stats[:3, q] = _cycle_stats(ks[cyc_ok[q]])

    # each pair's paths in rising product order, as indices into the path table
    pair = np.arange(ecount)
    ranked = np.argsort(pi.reshape(ecount, per), axis=1) + (pair * per)[:, None]
    alive = (t.path_need[ranked][None, :, :] & ~bits[:, None, None]) == 0
    first = alive.argmax(axis=2)
    if not alive[np.arange(rows)[:, None], pair, first].all():
        raise NotIrreducible("a mask row leaves some pair without a path")
    last = per - 1 - alive[:, :, ::-1].argmax(axis=2)
    stats[3] = _sh(t.n, pi[ranked[pair, first]], pi[ranked[pair, last]])
    return stats


def _by_survival(t, ks, pi, masks):
    """(Ktilde, I1, I2, SH) per row of a nested chain, from survival lengths.

    Row q sees exactly the cycles and paths whose life exceeds q, so
    each statistic is binned by life once and summed (or maxed, or
    minned) over the bins above q by a reverse accumulation.  A row in
    which some pair keeps no path is disconnected and raises
    NotIrreducible.
    """
    rows, ecount = masks.shape
    life = np.append(masks.sum(axis=0), rows).astype(np.min_scalar_type(rows))
    bins = rows + 1
    cyc_life, path_life = _walk_lives(life, t)

    count = _tail(np.add, np.bincount(cyc_life, minlength=bins))
    total = _tail(np.add, np.bincount(cyc_life, ks, bins))
    squares = _tail(np.add, np.bincount(cyc_life, ks * ks, bins))
    top = np.zeros(bins)
    np.maximum.at(top, cyc_life, ks)
    kt = _tail(np.maximum, top)
    i1, i2 = _cycle_means(total, squares, count)

    # cell ids in the smallest type that holds bins * E, not intp, for the
    # reason given at _LOOKUP_CHUNK
    cell = path_life.astype(np.min_scalar_type(bins * ecount - 1))
    cell *= ecount
    cell += t.path_pair
    lo = np.full(bins * ecount, np.inf)
    hi = np.full(bins * ecount, -np.inf)
    np.minimum.at(lo, cell, pi)
    np.maximum.at(hi, cell, pi)
    lo = _tail(np.minimum, lo.reshape(bins, ecount))
    hi = _tail(np.maximum, hi.reshape(bins, ecount))
    if np.isinf(lo).any():
        raise NotIrreducible("a mask row leaves some pair without a path")
    return kt, i1, i2, _sh(t.n, lo, hi)


def _walk_lives(life, t):
    """Each cycle's and each path's least life over the slots it uses.

    ``life`` holds one life per slot, the padding slot E last.  The
    least life of every slot triple, min(life[a], life[b], life[c]) at
    (a * (E + 1) + b) * (E + 1) + c, is one small table per chain, so a
    walk's life takes one lookup per triple row of the tables.  The
    lookups run over ``_LOOKUP_CHUNK`` walks at a time, because ``take``
    copies its indices to intp first.
    """
    least = np.minimum.outer(np.minimum.outer(life, life), life).ravel()
    out = []
    for triples in (t.cyc_triples, t.path_triples):
        walk = np.empty(triples.shape[1], dtype=least.dtype)
        for start in range(0, walk.size, _LOOKUP_CHUNK):
            part = triples[:, start : start + _LOOKUP_CHUNK]
            piece = walk[start : start + _LOOKUP_CHUNK]
            least.take(part[0], out=piece)
            for row in part[1:]:
                np.minimum(piece, least.take(row), out=piece)
        out.append(walk)
    return out


def _tail(op, per_life):
    """Row q's aggregate over lives q+1 .. R: reverse accumulation, bin 0 dropped."""
    return op.accumulate(per_life[::-1], axis=0)[::-1][1:]
