"""Exact exponential-time reference solvers for the four chromatic parameters.

These are ground truth for desk-scale instances.  Every solver honors an
OracleBudget and raises BudgetExceededError when a size limit or the wall
clock is hit.

Each solver counts k up from a lower bound until one DSATUR backtracking
search, _k_colorable, finds a k-coloring.  The chromatic, injective (on the
conflict graph of the edges) and 2-dipath searches start from the size of a
greedy clique in each component.  The oriented search runs on the 2-dipath
graph as a whole, with an ordered color-pair test on each color, and starts
from the 2-dipath number.  The search keeps its own trail instead of
recursing, and picks each vertex from saturation buckets, not by a scan.
Each uncolored vertex holds one int whose bit c marks a neighbor colored c,
so a placement costs one bit test per neighbor, and undoing it touches only
the neighbors it saturated.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceededError
from .graphs import (
    Edge,
    EdgeColoring,
    OrientedGraph,
    UndirectedGraph,
    VertexColoring,
    two_dipath_constraint_graph,
)


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 12
    max_edges: int = 24
    timeout: float = 60.0


DEFAULT_BUDGET = OracleBudget()


class _Deadline:
    """nodes counts the calls to check: one per search node, plus one per
    edge while the injective conflict graph is built.  The clock is read at
    every 512th call."""

    def __init__(self, timeout: float) -> None:
        self.at = time.monotonic() + timeout
        self.nodes = 0

    def check(self) -> None:
        self.nodes += 1
        if self.nodes & 0x1FF == 0 and time.monotonic() > self.at:
            raise BudgetExceededError("oracle timeout")


def _components(n: int, adj: list[set[int]]) -> list[list[int]]:
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _greedy_clique(comp: list[int], adj: list[set[int]]) -> list[int]:
    order = sorted(comp, key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def _k_colorable(comp: list[int], adj: list[set[int]], k: int, clique: list[int],
                 deadline: _Deadline, arcs: list[list[tuple[int, bool]]] | None = None
                 ) -> dict[int, int] | None:
    """DSATUR backtracking (Brelaz, CACM 1979) with the clique precolored for
    symmetry breaking.

    Uncolored vertices (color 0) sit in buckets by saturation, the number of
    distinct colors among their colored neighbors.  Bit c of seen[w] says
    that a colored neighbor of w has color c, so an uncolored w sits in
    bucket seen[w].bit_count() and may take c when bit c is clear.  A
    colored vertex holds the all-ones mask -1, so placing c on v saturates
    exactly the neighbors w with bit c clear in seen[w], and moves only those
    up one bucket.  The next vertex is the one of highest saturation, then
    highest degree, then lowest id; colors are tried in ascending order.
    The trail holds (vertex, color, max_used before it, the vertex's mask
    before it, the neighbors the placement saturated) for each placed
    vertex, so undoing a placement touches only those neighbors.  With arcs,
    where arcs[v] lists (neighbor, whether the arc leaves v), a color is
    refused when one of v's arcs would carry the reverse of an ordered color
    pair already on an arc: the oriented search.
    """
    # Local ids in selection-rank order, so that every table is a list and
    # the highest id in a bucket is the next vertex.
    order = sorted(comp, key=lambda u: (len(adj[u]), -u))
    local = {u: i for i, u in enumerate(order)}
    nbrs = [[local[w] for w in adj[u]] for u in order]
    colors = [0] * len(order)
    seen = [0] * len(order)
    buckets: list[set[int]] = [set(range(len(order)))] + [set() for _ in range(k)]
    if arcs is not None:
        arcs = [[(local[u], leaves) for u, leaves in arcs[v]] for v in order]
    pair_count: Counter[tuple[int, int]] = Counter()

    def arc_pairs(v: int, c: int) -> list[tuple[int, int]]:
        return [(c, colors[u]) if leaves else (colors[u], c)
                for u, leaves in arcs[v] if colors[u]]

    def next_color(v: int, c: int, hi: int) -> int:
        """The lowest allowed color of v in c + 1..hi, or 0."""
        free = ~seen[v] & ((2 << hi) - (2 << c))
        while free:
            d = (free & -free).bit_length() - 1
            if arcs is None or not any(pair_count[b, a] for a, b in arc_pairs(v, d)):
                return d
            free &= free - 1
        return 0

    def place(v: int, c: int) -> tuple[int, ...]:
        if arcs is not None:
            pair_count.update(arc_pairs(v, c))
        colors[v] = c
        buckets[seen[v].bit_count()].remove(v)
        seen[v] = -1
        bit = 1 << c
        saturated = [w for w in nbrs[v] if not seen[w] & bit]
        for w in saturated:
            seen[w] = now = seen[w] | bit
            s = now.bit_count()
            buckets[s - 1].remove(w)
            buckets[s].add(w)
        # A tuple of ints leaves the garbage collector's lists, so a deep
        # trail does not slow every full collection.
        return tuple(saturated)

    def unplace(v: int, c: int, mask: int, saturated: tuple[int, ...]) -> None:
        colors[v] = 0
        if arcs is not None:
            pair_count.subtract(arc_pairs(v, c))
        seen[v] = mask
        buckets[mask.bit_count()].add(v)
        bit = 1 << c
        for w in saturated:
            seen[w] = now = seen[w] ^ bit
            s = now.bit_count()
            buckets[s + 1].remove(w)
            buckets[s].add(w)

    for i, u in enumerate(clique):
        place(local[u], i + 1)
    max_used = len(clique)
    trail: list[tuple[int, int, int, int, tuple[int, ...]]] = []
    while True:
        deadline.check()
        s = k
        while s >= 0 and not buckets[s]:
            s -= 1
        if s < 0:
            return dict(zip(order, colors))
        v = max(buckets[s])
        c = 0
        # Take v's next allowed color above c, or undo the last placement and
        # resume that vertex above its old color.
        while not (c := next_color(v, c, min(k, max_used + 1))):
            if not trail:
                return None
            v, c, max_used, mask, saturated = trail.pop()
            unplace(v, c, mask, saturated)
        mask = seen[v]
        trail.append((v, c, max_used, mask, place(v, c)))
        max_used = max(max_used, c)


def _solve_component(comp: list[int], adj: list[set[int]], deadline: _Deadline) -> dict[int, int]:
    """An optimal coloring of one component: k starts at the size of a
    greedy clique and rises until _k_colorable succeeds, which it does at
    k = len(comp) at the latest."""
    clique = _greedy_clique(comp, adj)
    k = len(clique)
    while (colors := _k_colorable(comp, adj, k, clique, deadline)) is None:
        k += 1
    return colors


def _solve_chromatic(n: int, adj: list[set[int]], deadline: _Deadline) -> dict[int, int]:
    colors: dict[int, int] = {}
    for comp in _components(n, adj):
        colors.update(_solve_component(comp, adj, deadline))
    return colors


def exact_chromatic_number(G: UndirectedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    return exact_chromatic_coloring(G, budget).k


def exact_chromatic_coloring(G: UndirectedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> VertexColoring:
    """An optimal proper coloring, as a witness for exact_chromatic_number."""
    if G.n > budget.max_vertices:
        raise BudgetExceededError(f"{G.n} vertices exceed budget {budget.max_vertices}")
    deadline = _Deadline(budget.timeout)
    adj = [set(G.neighbors(v)) for v in range(G.n)]
    return VertexColoring(_solve_chromatic(G.n, adj, deadline))


def _conflict_adjacency(G: UndirectedGraph, edges: list[Edge], deadline: _Deadline) -> list[set[int]]:
    """The edges_conflict adjacency on edge indices, found around each third
    edge g = xy as (edges at x) x (edges at y) minus g, in
    O(sum over g of deg x * deg y) time."""
    at: list[list[int]] = [[] for _ in range(G.n)]
    for i, (u, v) in enumerate(edges):
        at[u].append(i)
        at[v].append(i)
    adj: list[set[int]] = [set() for _ in range(len(edges))]
    for g, (x, y) in enumerate(edges):
        deadline.check()
        for i in at[x]:
            if i == g:
                continue
            for j in at[y]:
                if j != g:  # then j != i too: only g lies at both x and y
                    adj[i].add(j)
                    adj[j].add(i)
    return adj


def exact_injective_index(G: UndirectedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    return exact_injective_coloring(G, budget).k


def exact_injective_coloring(G: UndirectedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> EdgeColoring:
    """An optimal injective edge coloring.

    Computed as an optimal proper coloring of the conflict graph whose
    vertices are the edges of G and whose adjacency is edges_conflict.
    """
    if G.m > budget.max_edges:
        raise BudgetExceededError(f"{G.m} edges exceed budget {budget.max_edges}")
    deadline = _Deadline(budget.timeout)
    edges = G.edges()
    m = len(edges)
    adj = _conflict_adjacency(G, edges, deadline)
    colors = _solve_chromatic(m, adj, deadline)
    return EdgeColoring({edges[i]: colors[i] for i in range(m)})


def _two_dipath_adjacency(D: OrientedGraph, budget: OracleBudget) -> list[set[int]]:
    if D.n > budget.max_vertices:
        raise BudgetExceededError(f"{D.n} vertices exceed budget {budget.max_vertices}")
    constraints = two_dipath_constraint_graph(D)
    return [constraints.neighbors(v) for v in range(D.n)]


def exact_2dipath_number(D: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum colors so that endpoints of every arc and every directed
    two-step path differ, for the given fixed orientation."""
    adj = _two_dipath_adjacency(D, budget)
    return len(set(_solve_chromatic(D.n, adj, _Deadline(budget.timeout)).values()))


def exact_oriented_coloring(D: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> VertexColoring:
    """An optimal oriented coloring of the given fixed orientation.

    An oriented coloring is a proper coloring of the 2-dipath graph (a path
    u -> w -> v with c(u) = c(v) would put both (c(u), c(w)) and (c(w), c(u))
    on arcs) in which no ordered color pair occurs on arcs in both
    directions.  So k starts at the 2-dipath number, and the search runs on
    the 2-dipath graph with the pair rule as an extra test on each color.
    Color pairs are shared across components, so the whole graph is one
    search.  A greedy 2-dipath clique is precolored: its vertices need
    distinct colors, and one arc at most joins each two of them.  k rises
    until the search succeeds, at k = n at the latest (all colors distinct).
    """
    adj = _two_dipath_adjacency(D, budget)
    deadline = _Deadline(budget.timeout)
    k = len(set(_solve_chromatic(D.n, adj, deadline).values()))
    everything = list(range(D.n))
    clique = _greedy_clique(everything, adj)
    arcs = [[(u, True) for u in D.out_neighbors(v)] + [(u, False) for u in D.in_neighbors(v)]
            for v in everything]
    while (colors := _k_colorable(everything, adj, k, clique, deadline, arcs)) is None:
        k += 1
    return VertexColoring(colors)


def exact_oriented_number(D: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    return exact_oriented_coloring(D, budget).k
