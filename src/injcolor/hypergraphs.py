"""The out-neighborhoods of an independent set as hyperedges on its heads,
their clique graph, and the min-degree peel coloring the deterministic arc
colorer needs."""

from __future__ import annotations

import math
import warnings
from typing import Iterable

from .graphs import OrientedGraph, VertexColoring, first_fit, smallest_last


def neighborhood_hypergraph(D: OrientedGraph, X: Iterable[int]
                            ) -> tuple[list[frozenset[int]], list[int]]:
    """The nonempty out-neighborhoods of X in ascending x, as sets of ids
    0, 1, ... that number the heads N+(X) in ascending vertex order, and the
    list of those heads.  Raises when some out-neighborhood meets X."""
    xset = set(X)
    neighborhoods = []
    for x in sorted(xset):
        nb = D.out_neighbors(x)
        if not nb.isdisjoint(xset):
            raise ValueError(f"out-neighborhood of {x} meets X")
        if nb:
            neighborhoods.append(nb)
    heads = sorted(set().union(*neighborhoods))
    index = {v: i for i, v in enumerate(heads)}
    return [frozenset(index[v] for v in nb) for nb in neighborhoods], heads


def peel_color_clique_graph(hyperedges: list[frozenset[int]],
                            genus: int | None = None) -> VertexColoring:
    """Color the clique graph greedily along its min-degree peeling order.

    Removing a vertex from every hyperedge induces the clique graph on the
    remaining vertices, so peeling the hyperedges is exactly peeling their
    clique graph (two ids adjacent iff they share a hyperedge, the largest id
    plus one vertices), built as adjacency sets in O(sum of |e|^2) time and
    colored as greedy_color colors its degeneracy_order.  When a genus bound
    g >= 2 for the incidence graph is asserted, peel degrees above
    20*r^2*sqrt(g) - 1, r the largest hyperedge, raise a warning; g is
    caller-asserted, so this is diagnostic, not an error.  Without a
    nonempty hyperedge (r = 0) there is nothing to warn about.
    """
    adj = [set() for _ in range(1 + max(map(max, filter(None, hyperedges)), default=-1))]
    for e in hyperedges:
        for v in e:
            adj[v].update(e)
            adj[v].discard(v)
    order, d = smallest_last(adj)
    if genus is not None and genus >= 2:
        r = max(map(len, hyperedges), default=0)
        bound = 20.0 * r * r * math.sqrt(genus)
        if r and d > bound - 1:
            warnings.warn(
                f"peel degree {d} exceeds {bound - 1:.1f}; "
                "the asserted genus bound looks dishonest",
                stacklevel=2,
            )
    return VertexColoring(first_fit(adj, order))
