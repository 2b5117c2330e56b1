"""Core graph types and primitives.

Vertices are dense ids ``0..n-1``; input labels are remapped at the parser
layer.  All types here are immutable once constructed and every operation is
a pure function of its inputs, so values can be shared freely across
concurrent tasks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Order an edge's endpoints as (min, max)."""
    return (u, v) if u <= v else (v, u)


class UndirectedGraph:
    """Simple loop-free undirected graph with set adjacency.

    Duplicate edges in the input are collapsed; self-loops are rejected.
    """

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v not in self._adj[u]:
                self._adj[u].add(v)
                self._adj[v].add(u)
                m += 1
        self.m = m

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def edges(self) -> list[Edge]:
        """All edges as (min, max) pairs in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, m={self.m})"


class OrientedGraph:
    """Digon-free orientation: no loops, at most one arc per vertex pair."""

    def __init__(self, n: int, arcs: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._out: list[set[int]] = [set() for _ in range(n)]
        self._in: list[set[int]] | None = None  # built on first use
        m = 0
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u in self._out[v]:
                raise ValueError(f"digon between {u} and {v}")
            if v not in self._out[u]:
                self._out[u].add(v)
                m += 1
        self.m = m

    @classmethod
    def _from_out_sets(cls, n: int, out_sets: list[set[int]], m: int) -> "OrientedGraph":
        # Trusted fast path: the caller guarantees loop- and digon-freeness.
        g = cls.__new__(cls)
        g.n = n
        g._out = out_sets
        g._in = None
        g.m = m
        return g

    def _in_sets(self) -> list[set[int]]:
        if self._in is None:
            rev: list[set[int]] = [set() for _ in range(self.n)]
            for u, heads in enumerate(self._out):
                for v in heads:
                    rev[v].add(u)
            self._in = rev
        return self._in

    def out_neighbors(self, v: int) -> set[int]:
        return self._out[v]

    def in_neighbors(self, v: int) -> set[int]:
        return self._in_sets()[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    @property
    def max_out_degree(self) -> int:
        return max((len(a) for a in self._out), default=0)

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._out[u]

    def arcs(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in sorted(self._out[u])]

    def arcs_out_of(self, vertices: Iterable[int]) -> list[Edge]:
        """All arcs whose tail lies in the given vertex set, sorted."""
        return [(u, v) for u in sorted(set(vertices)) for v in sorted(self._out[u])]

    def underlying(self) -> UndirectedGraph:
        return UndirectedGraph(self.n, self.arcs())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexOrdering:
    """A vertex permutation together with the back-degree d it witnesses."""

    order: tuple[int, ...]
    d: int

    def positions(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


class VertexColoring:
    """Total map from vertex ids to positive color ids."""

    def __init__(self, colors: Mapping[int, int]) -> None:
        self.colors = dict(colors)
        self.k = len(set(self.colors.values()))

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexColoring):
            return NotImplemented
        return self.colors == other.colors

    def __repr__(self) -> str:
        return f"VertexColoring(k={self.k}, vertices={len(self.colors)})"


class EdgeColoring:
    """Map from edges (as unordered pairs) to positive color ids.

    Total on E(G) for a coloring of G; the arc-coloring procedures return it
    on the subset of edges they were asked to color.
    """

    def __init__(self, colors: Mapping[Edge, int]) -> None:
        self.colors = {normalize_edge(*e): c for e, c in colors.items()}
        self.k = len(set(self.colors.values()))

    def __getitem__(self, e: Edge) -> int:
        return self.colors[normalize_edge(*e)]

    def domain(self) -> set[Edge]:
        return set(self.colors)

    def classes(self) -> dict[int, list[Edge]]:
        out: dict[int, list[Edge]] = {}
        for e, c in self.colors.items():
            out.setdefault(c, []).append(e)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self.colors == other.colors

    def __repr__(self) -> str:
        return f"EdgeColoring(k={self.k}, edges={len(self.colors)})"


def canonical_color_ids(assign: Mapping[Hashable, Hashable]) -> dict:
    """Relabel arbitrary color values to 1..k in sorted value order."""
    distinct = sorted(set(assign.values()))
    rank = {c: i + 1 for i, c in enumerate(distinct)}
    return {key: rank[c] for key, c in assign.items()}


def degeneracy_order(G: UndirectedGraph) -> VertexOrdering:
    """Peel minimum-degree vertices from the back, ties to the smallest id.

    The returned d is the largest degree seen at removal time, which equals
    the degeneracy of G.  Every vertex has at most d neighbors earlier in
    the returned order.
    """
    n = G.n
    deg = [G.degree(v) for v in range(n)]
    heap: list[Edge] = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    back_order: list[int] = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v] or dv != deg[v]:
            continue
        removed[v] = True
        if dv > d:
            d = dv
        back_order.append(v)
        for w in G.neighbors(v):
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return VertexOrdering(tuple(reversed(back_order)), d)


def orient_by_ordering(G: UndirectedGraph, ordering: VertexOrdering) -> OrientedGraph:
    """Orient every edge from the later endpoint to the earlier one."""
    pos = ordering.positions()
    arcs = []
    for u, v in G.edges():
        arcs.append((u, v) if pos[u] > pos[v] else (v, u))
    return OrientedGraph(G.n, arcs)


def greedy_color(G: UndirectedGraph, ordering: VertexOrdering) -> VertexColoring:
    """Color vertices along the ordering with the least available positive integer."""
    colors: dict[int, int] = {}
    for v in ordering.order:
        used = {colors[w] for w in G.neighbors(v) if w in colors}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return VertexColoring(colors)


def two_dipath_constraint_graph(D: OrientedGraph) -> UndirectedGraph:
    """Vertices joined by an arc or by a directed path of length 2."""
    pairs = D.arcs()
    for w in range(D.n):
        for u in D.in_neighbors(w):
            pairs.extend((u, v) for v in D.out_neighbors(w) if u != v)
    return UndirectedGraph(D.n, pairs)


def edges_conflict(G: UndirectedGraph, e: Edge, f: Edge) -> bool:
    """True when some third edge of G joins an endpoint of e to an endpoint of f.

    Two equal-colored edges are allowed in an injective edge coloring exactly
    when this predicate is false for them.
    """
    e = normalize_edge(*e)
    f = normalize_edge(*f)
    if e == f:
        raise ValueError("edges must be distinct")
    for x in e:
        for y in f:
            if x != y and G.has_edge(x, y):
                g = normalize_edge(x, y)
                if g != e and g != f:
                    return True
    return False


def is_induced_star_forest(G: UndirectedGraph, edge_set: Iterable[Edge]) -> bool:
    """True when no two edges of the set conflict, i.e. the set is a star
    forest induced in G."""
    es = [normalize_edge(*e) for e in edge_set]
    for e in es:
        if not G.has_edge(*e):
            raise ValueError(f"{e} is not an edge of the graph")
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if edges_conflict(G, es[i], es[j]):
                return False
    return True
