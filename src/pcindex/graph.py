"""Graph view of a PC matrix: connectivity, simple cycles, simple paths.

Every defined comparison {i, j} is one undirected edge; its labels
c_ij and c_ji = 1/c_ij stay in the matrix.  A ranking is derivable
exactly when this graph is connected (the matrix is then called
irreducible).  Cycles are the carriers of inconsistency: the product of
labels around a simple cycle equals 1 iff the judgments along it are
mutually consistent.

The graph has one form: the boolean n x n adjacency that ``build_graph``
returns, which is the matrix's definedness mask with the diagonal
cleared, and every function here takes it.  Connectivity and the path
search read it as neighbour lists (``_neighbours``).  Cycles are listed
by a level-synchronous numpy frontier (``_frontier``) that never makes a
Python object per walk; the experiment's tables in ``_fast`` come from
the same frontier over the complete graph.  Paths between one pair are
listed by a depth-first search, each as a plain tuple of its vertices.
"""

import math

import numpy as np

from .core import PCError

__all__ = [
    "CycleCapExceeded",
    "build_graph",
    "is_irreducible",
    "enumerate_cycles",
    "enumerate_paths",
]

# Both searches below count one step per vertex they add to a partial
# path and give up past MAX_STEPS, the steps the cycle search of the
# complete graph K8 takes.  Adding an edge never removes a partial path,
# so no graph on 8 or fewer vertices goes past the budget.
MAX_STEPS = 16064


class CycleCapExceeded(PCError):
    """Cycle or path enumeration would exceed its step budget."""


def build_graph(m):
    """Boolean adjacency of a PCMatrix's comparison graph: its defined cells, diagonal cleared."""
    adj = m.defined.copy()
    np.fill_diagonal(adj, False)
    return adj


def _neighbours(adj):
    """Each vertex's neighbours under the boolean adjacency ``adj``, as lists in vertex order."""
    return [[u for u, arc in enumerate(row) if arc] for row in adj.tolist()]


def is_irreducible(adj):
    """True iff every vertex is reachable from vertex 0 along the arcs of ``adj``.

    For reciprocal matrices every defined comparison contributes both
    directed arcs, so on a comparison graph this is connectivity, and
    connectivity coincides with strong connectivity of the directed
    labeling.  A directed pattern is strongly connected exactly when
    this holds for it and for its transpose.
    """
    nbrs = _neighbours(adj)
    seen = {0}
    stack = [0]
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(nbrs)


def enumerate_cycles(adj):
    """All simple cycles (3 or more vertices), canonical, in lexicographic order.

    Each direction-equivalence class is returned once (a cycle and its
    reversal describe the same judgment loop; their ratios are mutual
    reciprocals and their inconsistency is identical).  A cycle starts
    at its smallest vertex and keeps the direction with second < last,
    which also makes the output order deterministic.

    Returns a (cycles, n + 1) array of closed walks: each row holds the
    cycle's vertices, its start again, then ``n`` as padding.  Where one
    cycle is a prefix of another the first has its start, the least
    vertex, where the other goes on, so sorting the rows lists every
    cycle before its extensions, as a depth-first search would.  The
    search is ``_frontier`` over the boolean adjacency ``adj`` from every
    vertex and raises CycleCapExceeded past MAX_STEPS steps.
    """
    n = len(adj)
    out = [np.empty((0, n + 1), dtype=np.min_scalar_type(n))]
    for k, walks in _frontier(adj, range(n), above=True, max_steps=MAX_STEPS):
        # keeping second < last lists each direction class once
        shut = walks[(walks[:, 1] < walks[:, k]) & adj[walks[:, k], walks[:, 0]]]
        shut[:, k + 1] = shut[:, 0]
        out.append(shut)
    v = np.concatenate(out)
    return v[np.lexsort(v.T[::-1])]


def _frontier(adj, roots, above, max_steps=math.inf):
    """The simple walks over the boolean adjacency ``adj``, one level (hop count) at a time.

    Yields (k, walks) for k = 1, 2, ..., where walks is a (walks, n + 1)
    array of every k-hop walk that starts at a root and visits no vertex
    twice: its k + 1 vertices, then ``n`` as padding.  With ``above`` a walk visits
    only vertices above its root.  Each level extends every walk of the
    last one by every neighbour of its last vertex that it may still
    enter, found with one gather of adjacency rows against the walks'
    boolean rows of enterable vertices and ``np.flatnonzero``, so the
    children of a walk follow in vertex order.  The walks past the roots
    are the steps a depth-first search takes; the new level's walks are
    counted first, and once the steps pass ``max_steps`` the search
    raises CycleCapExceeded before anything of that level is allocated.
    A level then gathers each parent's walk row and enterable row as one
    ``np.void`` item (``_take_rows``).  It stops at the first empty level.
    """
    n = len(adj)
    vertex = np.arange(n)
    walks = np.full((len(roots), n + 1), n, dtype=np.min_scalar_type(n))
    walks[:, 0] = roots
    enterable = vertex > walks[:, :1] if above else vertex != walks[:, :1]
    steps = 0
    for k in range(1, n):
        free = adj.take(walks[:, k - 1], axis=0) & enterable
        count = np.count_nonzero(free)
        steps += count
        if steps > max_steps:
            raise CycleCapExceeded("cycle search exceeded %d steps" % max_steps)
        if not count:
            return
        flat = np.flatnonzero(free)
        parent = flat // n
        u = flat - parent * n
        walks = _take_rows(walks, parent)
        walks[:, k] = u
        enterable = _take_rows(enterable, parent)
        # clear each child's entered vertex at its flat index
        enterable.reshape(-1)[np.arange(0, count * n, n) + u] = False
        yield k, walks


def _take_rows(a, index):
    """``a[index]`` for a C-contiguous 2-D array, each row taken as one np.void item."""
    row = np.dtype((np.void, a.shape[1] * a.itemsize))
    return a.view(row).take(index).view(a.dtype).reshape(len(index), a.shape[1])


def enumerate_paths(adj, i, j):
    """All simple paths from i to j over the boolean adjacency ``adj``, in lexicographic vertex order.

    Each path is a tuple of its vertices, from i to j.  Includes the
    single-edge path when {i, j} is an edge, and returns [] when no
    route joins i and j (the graph is then disconnected), just as
    ``enumerate_cycles`` returns no rows for a tree.  Raises
    CycleCapExceeded when the search takes more than MAX_STEPS steps.
    """
    if i == j:
        raise ValueError("endpoints must differ")
    n = len(adj)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("vertex out of range")
    out = []
    nbrs = _neighbours(adj)
    path = [i]
    on_path = {i}
    walk = iter(nbrs[i])
    stack = []
    steps = 0
    while True:
        for u in walk:
            if u == j:
                out.append(tuple(path) + (j,))
            elif u not in on_path:
                steps += 1
                if steps > MAX_STEPS:
                    raise CycleCapExceeded(
                        "simple path search between %d and %d exceeded %d steps"
                        % (i, j, MAX_STEPS)
                    )
                path.append(u)
                on_path.add(u)
                stack.append(walk)
                walk = iter(nbrs[u])
                break
        else:
            if not stack:
                break
            walk = stack.pop()
            on_path.remove(path.pop())
    return out


def _ratio_inconsistency(r):
    """min(|1 - r|, |1 - 1/r|), elementwise over ratios r > 0."""
    return np.minimum(np.abs(1.0 - r), np.abs(1.0 - 1.0 / r))
