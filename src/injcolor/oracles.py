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
recursing, and works on int bitsets whose O(L^2) bits for L vertices are
why a search over more than SEARCH_VERTEX_BUDGET = 2^15 vertices raises
BudgetExceededError before any mask is built.
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
SEARCH_VERTEX_BUDGET = 1 << 15  # the most vertices one _k_colorable search takes


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


def _check_search_size(size: int) -> None:
    if size > SEARCH_VERTEX_BUDGET:
        raise BudgetExceededError(f"a search over {size} vertices exceeds the budget {SEARCH_VERTEX_BUDGET}")


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
    symmetry breaking, on int bitsets over local ids (after San Segundo,
    Rodriguez-Losada and Jimenez, Computers & OR 38(2), 2011).

    nb[v] holds v's neighbors, colmask[c] the vertices, colored or not, with
    a neighbor colored c, and uncolored the vertices still to color.  The
    saturations (the number of c with the vertex in colmask[c]) are binary
    counters sliced across k.bit_length() planes: bit v of planes[p] is bit
    p of v's.  The uncolored set, narrowed plane by plane from the highest,
    keeps the vertices of highest saturation, and its top bit is the next
    vertex: highest saturation, then highest degree, then lowest id.  Colors
    are tried in ascending order up to min(k, max_used + 1).  Placing c on v
    ripple-adds newly = nb[v] minus colmask[c] into the planes; the trail
    holds (vertex, color, max_used before it, newly), so an undo subtracts
    exactly that.  A step costs O(L/30) digit operations (30-bit digits) for
    L vertices, and the masks O(L^2) bits.  With arcs, where arcs[v] lists
    (neighbor, whether the arc leaves v), a color is refused when one of v's
    arcs would carry the reverse of an ordered color pair already on an arc:
    the oriented search.
    """
    # Local ids in selection-rank order, so that the top bit of a set of
    # equally saturated vertices is the next vertex.
    order = sorted(comp, key=lambda u: (len(adj[u]), -u))
    local = {u: i for i, u in enumerate(order)}
    nb = [sum(1 << local[w] for w in adj[u]) for u in order]
    colors = [0] * len(order)
    colmask = [0] * (k + 1)
    planes = [0] * k.bit_length()
    uncolored = (1 << len(order)) - 1
    if arcs is not None:
        arcs = [[(local[u], leaves) for u, leaves in arcs[v]] for v in order]
    pair_count: Counter[tuple[int, int]] = Counter()

    def arc_pairs(v: int, c: int) -> list[tuple[int, int]]:
        return [(c, colors[u]) if leaves else (colors[u], c)
                for u, leaves in arcs[v] if colors[u]]

    def place(v: int, c: int) -> int:
        nonlocal uncolored
        if arcs is not None:
            pair_count.update(arc_pairs(v, c))
        colors[v] = c
        uncolored ^= 1 << v
        newly = nb[v] ^ (nb[v] & colmask[c])
        colmask[c] |= newly
        carry = newly
        for p, plane in enumerate(planes):
            if not carry:
                break
            planes[p] = plane ^ carry
            carry &= plane
        return newly

    for i, u in enumerate(clique):
        place(local[u], i + 1)
    max_used = len(clique)
    hi = min(k, max_used + 1)  # the highest color a step may try
    trail: list[tuple[int, int, int, int]] = []
    while True:
        deadline.check()
        if not uncolored:
            return dict(zip(order, colors))
        top = uncolored
        for plane in reversed(planes):
            if hit := top & plane:
                top = hit
        v = top.bit_length() - 1
        c = 0
        # Take v's lowest allowed color above c, or undo the last placement
        # and resume that vertex above its old color.
        while True:
            for c in range(c + 1, hi + 1):
                if not colmask[c] >> v & 1 and (
                        arcs is None or not any(pair_count[b, a] for a, b in arc_pairs(v, c))):
                    break
            else:
                if not trail:
                    return None
                v, c, max_used, newly = trail.pop()
                hi = min(k, max_used + 1)
                colors[v] = 0
                if arcs is not None:
                    pair_count.subtract(arc_pairs(v, c))
                uncolored |= 1 << v
                colmask[c] ^= newly
                # Ripple-subtract newly from the planes.
                for p, plane in enumerate(planes):
                    if not newly:
                        break
                    planes[p] = plane = plane ^ newly
                    newly &= plane
                continue
            break
        trail.append((v, c, max_used, place(v, c)))
        if c > max_used:
            max_used = c
            hi = min(k, c + 1)


def _solve_chromatic(n: int, adj: list[set[int]], deadline: _Deadline) -> dict[int, int]:
    """An optimal coloring, one component at a time: k starts at the size of
    a greedy clique and rises until _k_colorable succeeds, which it does at
    k = len(comp) at the latest."""
    comps = _components(n, adj)
    _check_search_size(max(map(len, comps), default=0))
    colors: dict[int, int] = {}
    for comp in comps:
        clique = _greedy_clique(comp, adj)
        k = len(clique)
        while (found := _k_colorable(comp, adj, k, clique, deadline)) is None:
            k += 1
        colors.update(found)
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
    return two_dipath_constraint_graph(D)._adj


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
    _check_search_size(D.n)
    adj = _two_dipath_adjacency(D, budget)
    deadline = _Deadline(budget.timeout)
    k = len(set(_solve_chromatic(D.n, adj, deadline).values()))
    everything = list(range(D.n))
    clique = _greedy_clique(everything, adj)
    arcs: list[list[tuple[int, bool]]] = [[] for _ in everything]
    for v, heads in enumerate(D._out):
        for u in heads:
            arcs[v].append((u, True))
            arcs[u].append((v, False))
    while (colors := _k_colorable(everything, adj, k, clique, deadline, arcs)) is None:
        k += 1
    return VertexColoring(colors)


def exact_oriented_number(D: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    return exact_oriented_coloring(D, budget).k
