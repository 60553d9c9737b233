"""Graph view of a PC matrix: connectivity, simple cycles, simple paths.

Every defined comparison {i, j} is one undirected edge; its labels
c_ij and c_ji = 1/c_ij stay in the matrix.  A ranking is derivable
exactly when this graph is connected (the matrix is then called
irreducible).  Cycles are the carriers of inconsistency: the product of
labels around a simple cycle equals 1 iff the judgments along it are
mutually consistent.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import PCError

__all__ = [
    "ComparisonGraph",
    "Cycle",
    "Path",
    "CycleCapExceeded",
    "NoPath",
    "build_graph",
    "is_irreducible",
    "enumerate_cycles",
    "enumerate_paths",
]

# The largest n the experiment tabulates.
FREE_ENUMERATION_LIMIT = 8
# Both searches below count one step per vertex they add to a partial
# path and give up past MAX_STEPS, the steps the cycle search of the
# complete graph K8 takes.  Adding an edge never removes a partial path,
# so no graph on 8 or fewer vertices goes past the budget.
MAX_STEPS = 16064


class CycleCapExceeded(PCError):
    """Cycle or path enumeration would exceed its step budget or cycle cap."""


class NoPath(PCError):
    """No simple path exists between the requested vertices."""


class Cycle(NamedTuple):
    """Simple cycle in canonical form.

    ``vertices`` starts at the smallest vertex of the cycle and runs in
    the direction whose second vertex is smaller than its last, so each
    direction-equivalence class appears exactly once.
    """

    vertices: tuple


class Path(NamedTuple):
    """Simple path: distinct vertices, consecutive pairs are edges."""

    vertices: tuple


class ComparisonGraph:
    """Undirected view of a PC matrix (one edge per defined pair)."""

    def __init__(self, n, defined):
        self.n = n
        edges = []
        adj = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if defined[i, j]:
                    edges.append((i, j))
                    adj[i].append(j)
                    adj[j].append(i)
        self.edges = tuple(edges)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, i):
        return self._adj[i]

    def __repr__(self):
        return "ComparisonGraph(n=%d, edges=%d)" % (self.n, len(self.edges))


def build_graph(m):
    """ComparisonGraph of a PCMatrix; edges are its defined pairs."""
    return ComparisonGraph(m.n, m.defined)


def is_irreducible(g):
    """True iff the comparison graph is connected.

    For reciprocal matrices every defined comparison contributes both
    directed arcs, so undirected connectivity coincides with strong
    connectivity of the directed labeling.
    """
    n = g.n
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == n


def enumerate_cycles(g, max_cycles=None):
    """All simple cycles (3 or more vertices), canonical, in lexicographic order.

    Each direction-equivalence class is returned once (a cycle and its
    reversal describe the same judgment loop; their ratios are mutual
    reciprocals and their inconsistency is identical).  The search fixes
    the smallest cycle vertex as the start and keeps the direction with
    second < last, which also makes the output order deterministic.

    The search raises CycleCapExceeded past MAX_STEPS steps.  An explicit
    ``max_cycles`` replaces that budget with a cap on the cycles found,
    for callers that accept the work of a larger graph.
    """
    if max_cycles is None:
        max_steps, max_cycles = MAX_STEPS, math.inf
    else:
        max_steps = math.inf
    out = []
    steps = 0
    for s in range(g.n):
        # the search from s walks only vertices above s
        up = [tuple(u for u in a if u > s) for a in g._adj]
        closes = set(g._adj[s])
        path = [s]
        on_path = {s}
        walk = iter(up[s])
        stack = []
        while True:
            for u in walk:
                if u in on_path:
                    continue
                steps += 1
                if steps > max_steps:
                    raise CycleCapExceeded("cycle search exceeded %d steps" % max_steps)
                path.append(u)
                # keeping second < last lists each direction class once
                if u in closes and path[1] < u:
                    out.append(Cycle(tuple(path)))
                    if len(out) > max_cycles:
                        raise CycleCapExceeded("more than %d simple cycles" % max_cycles)
                on_path.add(u)
                stack.append(walk)
                walk = iter(up[u])
                break
            else:
                if not stack:
                    break
                walk = stack.pop()
                on_path.remove(path.pop())
    return out


def enumerate_paths(g, i, j):
    """All simple paths from i to j, in lexicographic vertex order.

    Includes the single-edge path when {i, j} is an edge.  Raises NoPath
    when the graph offers no route (it is then disconnected), and
    CycleCapExceeded when the search takes more than MAX_STEPS steps.
    """
    if i == j:
        raise ValueError("endpoints must differ")
    n = g.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("vertex out of range")
    out = []
    adj = g._adj
    path = [i]
    on_path = {i}
    walk = iter(adj[i])
    stack = []
    steps = 0
    while True:
        for u in walk:
            if u == j:
                out.append(Path(tuple(path) + (j,)))
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
                walk = iter(adj[u])
                break
        else:
            if not stack:
                break
            walk = stack.pop()
            on_path.remove(path.pop())
    if not out:
        raise NoPath("no path between %d and %d" % (i, j))
    return out


def _ratio_inconsistency(r):
    """min(|1 - r|, |1 - 1/r|), elementwise over ratios r > 0."""
    return np.minimum(np.abs(1.0 - r), np.abs(1.0 - 1.0 / r))
