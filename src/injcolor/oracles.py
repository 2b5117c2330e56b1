"""Exact exponential-time reference solvers for the four chromatic parameters.

These are ground truth for desk-scale instances.  Every solver honors an
OracleBudget and raises BudgetExceededError when a size limit or the wall
clock is hit.

Each solver counts k up from a lower bound until a backtracking search
finds a k-coloring: from the size of a greedy clique in each component for
the chromatic search, from the chromatic number of the underlying graph for
the oriented one.  Both searches keep their own trail instead of recursing.
"""

from __future__ import annotations

import time
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
    def __init__(self, timeout: float) -> None:
        self.at = time.monotonic() + timeout
        self._ticks = 0

    def check(self) -> None:
        self._ticks += 1
        if self._ticks & 0x1FF == 0 and time.monotonic() > self.at:
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
                 deadline: _Deadline) -> dict[int, int] | None:
    """DSATUR backtracking with the clique precolored for symmetry breaking.

    The trail holds (vertex, color, max_used before it) for each placed
    vertex; colors are tried in ascending order.
    """
    colors: dict[int, int] = {}
    sat: dict[int, dict[int, int]] = {v: {} for v in comp}

    def place(v: int, c: int) -> None:
        colors[v] = c
        for w in adj[v]:
            if w not in colors:
                sat[w][c] = sat[w].get(c, 0) + 1

    def unplace(v: int, c: int) -> None:
        del colors[v]
        for w in adj[v]:
            if w not in colors:
                if sat[w][c] == 1:
                    del sat[w][c]
                else:
                    sat[w][c] -= 1

    for i, v in enumerate(clique):
        place(v, i + 1)
    max_used = len(clique)
    trail: list[tuple[int, int, int]] = []
    while True:
        deadline.check()
        v = -1
        best_key = None
        for u in comp:
            if u in colors:
                continue
            key = (len(sat[u]), len(adj[u]), -u)
            if best_key is None or key > best_key:
                v = u
                best_key = key
        if v < 0:
            return dict(colors)
        c = 0
        # Take v's next free color above c, or undo the last placement and
        # resume that vertex above its old color.
        while not (c := next((d for d in range(c + 1, min(k, max_used + 1) + 1)
                              if d not in sat[v]), 0)):
            if not trail:
                return None
            v, c, max_used = trail.pop()
            unplace(v, c)
        place(v, c)
        trail.append((v, c, max_used))
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


def exact_2dipath_number(D: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum colors so that endpoints of every arc and every directed
    two-step path differ, for the given fixed orientation."""
    if D.n > budget.max_vertices:
        raise BudgetExceededError(f"{D.n} vertices exceed budget {budget.max_vertices}")
    deadline = _Deadline(budget.timeout)
    constraints = two_dipath_constraint_graph(D)
    adj = [constraints.neighbors(v) for v in range(D.n)]
    return len(set(_solve_chromatic(D.n, adj, deadline).values()))


def _oriented_feasible(arcs_at: list[list[tuple[int, bool]]], order: list[int], k: int,
                       deadline: _Deadline) -> dict[int, int] | None:
    """Backtracking over the vertices in the fixed order.  arcs_at[v] lists
    (neighbor, whether the arc leaves v).  The trail holds, for each placed
    vertex, (its color, the ordered color pairs it added, max_used before
    it)."""
    color = [0] * len(arcs_at)
    pair_count: dict[tuple[int, int], int] = {}

    def next_color(v: int, c: int, limit: int) -> tuple[int, list[tuple[int, int]]] | None:
        """v's first color above c, up to limit, that no colored neighbor
        forbids, with the ordered color pairs it adds."""
        for c in range(c + 1, limit + 1):
            added: list[tuple[int, int]] = []
            for u, leaves in arcs_at[v]:
                cu = color[u]
                if not cu:
                    continue
                pair, reverse = ((c, cu), (cu, c)) if leaves else ((cu, c), (c, cu))
                if cu == c or pair_count.get(reverse, 0) or reverse in added:
                    break
                added.append(pair)
            else:
                return c, added
        return None

    trail: list[tuple[int, list[tuple[int, int]], int]] = []
    max_used = 0
    while True:
        deadline.check()
        if len(trail) == len(order):
            return {v: color[v] for v in order}
        v = order[len(trail)]
        c = 0
        # Take v's next feasible color above c, or undo the last placement
        # and resume that vertex above its old color.
        while (step := next_color(v, c, min(k, max_used + 1))) is None:
            if not trail:
                return None
            c, added, max_used = trail.pop()
            v = order[len(trail)]
            color[v] = 0
            for p in added:
                pair_count[p] -= 1
        c, added = step
        for p in added:
            pair_count[p] = pair_count.get(p, 0) + 1
        color[v] = c
        trail.append((c, added, max_used))
        max_used = max(max_used, c)


def exact_oriented_coloring(D: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> VertexColoring:
    """An optimal oriented coloring of the given fixed orientation.

    Backtracking enforces both the proper condition and the ordered
    color-pair condition: no pair (a, b) may occur on arcs in both
    directions.  k starts at the chromatic number of the underlying graph
    and rises until the search succeeds, which it does at k = n at the
    latest (all colors distinct).
    """
    if D.n > budget.max_vertices:
        raise BudgetExceededError(f"{D.n} vertices exceed budget {budget.max_vertices}")
    deadline = _Deadline(budget.timeout)
    und_adj = [set(D.out_neighbors(v)) | set(D.in_neighbors(v)) for v in range(D.n)]
    k = len(set(_solve_chromatic(D.n, und_adj, deadline).values()))
    order = sorted(range(D.n), key=lambda v: (-len(und_adj[v]), v))
    arcs_at = [[(u, True) for u in D.out_neighbors(v)] + [(u, False) for u in D.in_neighbors(v)]
               for v in range(D.n)]
    while (colors := _oriented_feasible(arcs_at, order, k, deadline)) is None:
        k += 1
    return VertexColoring(colors)


def exact_oriented_number(D: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    return exact_oriented_coloring(D, budget).k
