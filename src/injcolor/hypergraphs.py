"""The out-neighborhood hypergraph of an independent set, its clique graph,
and the min-degree peel coloring the deterministic arc colorer needs."""

from __future__ import annotations

import math
import warnings
from typing import Iterable

from .graphs import (
    OrientedGraph,
    UndirectedGraph,
    VertexColoring,
    degeneracy_order,
    greedy_color,
    normalize_edge,
)


class Hypergraph:
    """Vertices 0..n-1 and a multiset of nonempty hyperedges."""

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        out = []
        for e in edges:
            fe = frozenset(e)
            if not fe:
                raise ValueError("hyperedges must be nonempty")
            if not all(0 <= v < n for v in fe):
                raise ValueError(f"hyperedge {sorted(fe)} out of range for n={n}")
            out.append(fe)
        self.edges: tuple[frozenset[int], ...] = tuple(out)

    @property
    def max_edge_size(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={len(self.edges)})"


def neighborhood_hypergraph(D: OrientedGraph, X: Iterable[int]) -> tuple[Hypergraph, list[int]]:
    """Hypergraph on V(D) minus X whose edges are the nonempty out-neighborhoods
    of X.  Returns it with the dense-index-to-original-id map."""
    xset = set(X)
    vertices = [v for v in range(D.n) if v not in xset]
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for x in sorted(xset):
        nb = D.out_neighbors(x)
        if not nb:
            continue
        if not nb.isdisjoint(xset):
            raise ValueError(f"out-neighborhood of {x} meets X")
        edges.append({index[v] for v in nb})
    return Hypergraph(len(vertices), edges), vertices


def clique_graph(H: Hypergraph) -> UndirectedGraph:
    """Two vertices adjacent iff they co-occur in some hyperedge."""
    pairs = set()
    for e in H.edges:
        members = sorted(e)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.add(normalize_edge(members[i], members[j]))
    return UndirectedGraph(H.n, pairs)


def peel_color_clique_graph(H: Hypergraph, genus: int | None = None) -> VertexColoring:
    """Color the clique graph greedily along its min-degree peeling order.

    Removing a vertex from every hyperedge induces the clique graph on the
    remaining vertices, so peeling the hypergraph is exactly peeling its
    clique graph.  When a genus bound g >= 2 for the incidence graph is
    asserted, peel degrees above 20*r^2*sqrt(g) - 1 raise a warning; g is
    caller-asserted, so this is diagnostic, not an error.
    """
    K = clique_graph(H)
    ordering = degeneracy_order(K)
    if genus is not None and genus >= 2:
        r = H.max_edge_size
        bound = 20.0 * r * r * math.sqrt(genus)
        if ordering.d > bound - 1:
            warnings.warn(
                f"peel degree {ordering.d} exceeds {bound - 1:.1f}; "
                "the asserted genus bound looks dishonest",
                stacklevel=2,
            )
    return greedy_color(K, ordering)

