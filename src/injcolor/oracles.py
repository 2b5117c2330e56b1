"""Exact exponential-time reference solvers for the four chromatic parameters.

These are ground truth for desk-scale instances.  Every solver honors an
OracleBudget and raises BudgetExceededError when a size limit or the wall
clock is hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphs import (
    EdgeColoring,
    OrientedGraph,
    UndirectedGraph,
    VertexColoring,
    edges_conflict,
    two_dipath_constraint_graph,
)


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 12
    max_edges: int = 24
    timeout: float = 60.0


DEFAULT_BUDGET = OracleBudget()

# Orientation enumeration doubles per edge; above this the caller must
# supply an orientation.
MAX_ORIENTATION_EDGES = 10


class BudgetExceededError(RuntimeError):
    pass


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


def _bipartite_coloring(comp: list[int], adj: list[set[int]]) -> dict[int, int] | None:
    colors: dict[int, int] = {}
    for s in comp:
        if s in colors:
            continue
        colors[s] = 1
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colors:
                    colors[w] = 3 - colors[v]
                    stack.append(w)
                elif colors[w] == colors[v]:
                    return None
    return colors


def _greedy_clique(comp: list[int], adj: list[set[int]]) -> list[int]:
    order = sorted(comp, key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def _dsatur_greedy(comp: list[int], adj: list[set[int]]) -> dict[int, int]:
    colors: dict[int, int] = {}
    sat: dict[int, set[int]] = {v: set() for v in comp}
    uncolored = set(comp)
    while uncolored:
        v = max(uncolored, key=lambda u: (len(sat[u]), len(adj[u]), -u))
        c = 1
        while c in sat[v]:
            c += 1
        colors[v] = c
        uncolored.discard(v)
        for w in adj[v]:
            if w in uncolored:
                sat[w].add(c)
    return colors


def _k_colorable(
    comp: list[int],
    adj: list[set[int]],
    k: int,
    clique: list[int],
    deadline: _Deadline,
) -> dict[int, int] | None:
    """DSATUR backtracking with the clique precolored for symmetry breaking."""
    if len(clique) > k:
        return None
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

    def search(max_used: int) -> bool:
        deadline.check()
        best = None
        best_key = None
        for v in comp:
            if v in colors:
                continue
            key = (len(sat[v]), len(adj[v]), -v)
            if best_key is None or key > best_key:
                best = v
                best_key = key
        if best is None:
            return True
        v = best
        limit = min(k, max_used + 1)
        for c in range(1, limit + 1):
            if c in sat[v]:
                continue
            place(v, c)
            if search(max(max_used, c)):
                return True
            unplace(v, c)
        return False

    if search(max_used):
        return dict(colors)
    return None


def _solve_component(comp: list[int], adj: list[set[int]], deadline: _Deadline) -> dict[int, int]:
    if all(not adj[v] for v in comp):
        return {v: 1 for v in comp}
    two = _bipartite_coloring(comp, adj)
    if two is not None:
        return two
    greedy = _dsatur_greedy(comp, adj)
    ub = len(set(greedy.values()))
    clique = _greedy_clique(comp, adj)
    lb = max(3, len(clique))
    if ub <= lb:
        return greedy
    for k in range(lb, ub):
        res = _k_colorable(comp, adj, k, clique, deadline)
        if res is not None:
            return res
    return greedy


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
    adj: list[set[int]] = [set() for _ in range(m)]
    for i in range(m):
        deadline.check()
        for j in range(i + 1, m):
            if edges_conflict(G, edges[i], edges[j]):
                adj[i].add(j)
                adj[j].add(i)
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
    colors = _solve_chromatic(D.n, adj, deadline)
    return len(set(colors.values())) if colors else 0


def _oriented_feasible(
    D: OrientedGraph,
    order: list[int],
    k: int,
    deadline: _Deadline,
) -> dict[int, int] | None:
    colors: dict[int, int] = {}
    pair_count: dict[tuple[int, int], int] = {}

    def search(idx: int, max_used: int) -> bool:
        deadline.check()
        if idx == len(order):
            return True
        v = order[idx]
        limit = min(k, max_used + 1)
        for c in range(1, limit + 1):
            added: list[tuple[int, int]] = []
            local: set[tuple[int, int]] = set()
            ok = True
            for u in D.out_neighbors(v):
                if u in colors:
                    cu = colors[u]
                    if cu == c or pair_count.get((cu, c), 0) or (cu, c) in local:
                        ok = False
                        break
                    added.append((c, cu))
                    local.add((c, cu))
            if ok:
                for u in D.in_neighbors(v):
                    if u in colors:
                        cu = colors[u]
                        if cu == c or pair_count.get((c, cu), 0) or (c, cu) in local:
                            ok = False
                            break
                        added.append((cu, c))
                        local.add((cu, c))
            if ok:
                for p in added:
                    pair_count[p] = pair_count.get(p, 0) + 1
                colors[v] = c
                if search(idx + 1, max(max_used, c)):
                    return True
                del colors[v]
                for p in added:
                    pair_count[p] -= 1
        return False

    if search(0, 0):
        return dict(colors)
    return None


def exact_oriented_coloring(D: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> VertexColoring:
    """An optimal oriented coloring of the given fixed orientation.

    Backtracking enforces both the proper condition and the ordered
    color-pair condition: no pair (a, b) may occur on arcs in both
    directions.
    """
    if D.n > budget.max_vertices:
        raise BudgetExceededError(f"{D.n} vertices exceed budget {budget.max_vertices}")
    deadline = _Deadline(budget.timeout)
    if D.n == 0:
        return VertexColoring({})
    und_adj = [set(D.out_neighbors(v)) | set(D.in_neighbors(v)) for v in range(D.n)]
    lb = len(set(_solve_chromatic(D.n, und_adj, deadline).values()))
    order = sorted(range(D.n), key=lambda v: (-len(und_adj[v]), v))
    for k in range(lb, D.n):
        res = _oriented_feasible(D, order, k, deadline)
        if res is not None:
            return VertexColoring(res)
    return VertexColoring({v: v + 1 for v in range(D.n)})


def exact_oriented_number(D: OrientedGraph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    return exact_oriented_coloring(D, budget).k


def exact_oriented_number_all_orientations(
    G: UndirectedGraph, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Maximum oriented chromatic number over all 2^m orientations of G."""
    if G.m > MAX_ORIENTATION_EDGES:
        raise BudgetExceededError(
            f"orientation enumeration limited to {MAX_ORIENTATION_EDGES} edges"
        )
    edges = G.edges()
    best = 0
    for bits in range(1 << len(edges)):
        arcs = [
            (u, v) if bits >> i & 1 else (v, u)
            for i, (u, v) in enumerate(edges)
        ]
        best = max(best, exact_oriented_number(OrientedGraph(G.n, arcs), budget))
    return best
