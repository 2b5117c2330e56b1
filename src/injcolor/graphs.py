"""Core graph types and primitives.

Vertices are dense ids ``0..n-1``; input labels are remapped at the parser
layer.  All types here are immutable once constructed (a graph keeps no
state built on first use) and every operation is a pure function of its
inputs, so values can be shared freely across concurrent tasks.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, count, starmap
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidColoringError

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

    @classmethod
    def _from_sets(cls, n: int, adj: list[set[int]], m: int) -> UndirectedGraph:
        """Trusted builder: adj and m taken as they are, unchecked.  Only for
        the parser and derivations from built graphs, whose sets are already
        symmetric, loop-free and in range, with m edges."""
        graph = cls.__new__(cls)
        graph.n, graph._adj, graph.m = n, adj, m
        return graph

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
    """Digon-free orientation: no loops, at most one arc per vertex pair.

    It holds n, m and the out-sets ``_out`` only: a vertex's in-neighbors are
    its underlying() neighbors minus its out-set.  The class itself defines no
    ``_out``, so CPython specializes ``self._out`` in the hot methods below;
    the drawn lower-bound graph (``generators``) is a subclass that builds
    its out-sets on first read.
    """

    def __init__(self, n: int, arcs: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._out: list[set[int]] = [set() for _ in range(n)]
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
    def _from_sets(cls, n: int, out: list[set[int]], m: int) -> OrientedGraph:
        """Trusted builder, on UndirectedGraph._from_sets's terms: the out-sets
        are loop- and digon-free and in range, with m arcs."""
        graph = cls.__new__(cls)
        graph.n, graph._out, graph.m = n, out, m
        return graph

    def _rows(self) -> Iterator[list[int]]:
        """Each vertex's out-neighbors in ascending order."""
        return (sorted(heads) for heads in self._out)

    def out_neighbors(self, v: int) -> set[int]:
        return self._out[v]

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
        """Each out-set joined by its reversed arcs, built trusted: being
        digon-free, the orientation has one arc per edge."""
        adj = [set(heads) for heads in self._out]
        for u, heads in enumerate(self._out):
            for v in heads:
                adj[v].add(u)
        return UndirectedGraph._from_sets(self.n, adj, self.m)

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
        self.colors = {(u, v) if u <= v else (v, u): c for (u, v), c in colors.items()}
        self.k = len(set(self.colors.values()))

    @classmethod
    def _from_normalized(cls, colors: dict[Edge, int]) -> EdgeColoring:
        """Trusted builder: colors taken as it is.  Only for callers whose keys
        are already (min, max) pairs, as in the coloring reader and class step."""
        coloring = cls.__new__(cls)
        coloring.colors, coloring.k = colors, len(set(colors.values()))
        return coloring

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


def check_domain(G: UndirectedGraph | OrientedGraph, coloring: EdgeColoring | VertexColoring,
                 show: Callable = lambda item: item) -> None:
    """Raise InvalidColoringError unless an EdgeColoring colors exactly E(G) or a
    VertexColoring exactly V(G), naming a missing item (first in G's order, listed
    only then) before a stray one (first in the coloring's), formatted by show."""
    colors, edges = coloring.colors, isinstance(coloring, EdgeColoring)
    ours = (lambda e: G.has_edge(*e)) if edges else (lambda v: 0 <= v < G.n)
    inside = sum(starmap(G.has_edge, colors)) if edges else sum(map(ours, colors))
    if inside < (G.m if edges else G.n):
        missing = next(x for x in (G.edges() if edges else range(G.n)) if x not in colors)
        raise InvalidColoringError(f"{'edge' if edges else 'vertex'} {show(missing)} has no color")
    if inside < len(colors):
        raise InvalidColoringError(f"colored non-{'edges' if edges else 'vertices'} present, "
                                   f"e.g. {show(next(x for x in colors if not ours(x)))}")


def canonical_color_ids(assign: Mapping[Hashable, Hashable]) -> dict:
    """Relabel arbitrary color values to 1..k in sorted value order."""
    distinct = sorted(set(assign.values()))
    rank = {c: i + 1 for i, c in enumerate(distinct)}
    return {key: rank[c] for key, c in assign.items()}


def smallest_last(adj: list[set[int]]) -> tuple[tuple[int, ...], int]:
    """Matula and Beck's smallest-last order of the graph with adjacency sets adj
    (peel minimum-degree vertices from the back, ties to the smallest id), and the
    degeneracy d, the largest degree at removal: no vertex has d + 1 earlier neighbors."""
    deg = [len(a) for a in adj]  # -1 once removed
    # Their bucket queue, each bucket a heap of the ids pushed at its degree:
    # the least current entry of the lowest bucket is the (degree, id) minimum.
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, dv in enumerate(deg):
        buckets[dv].append(v)  # ascending, so already a heap
    back_order: list[int] = []
    d = low = 0  # no vertex left has degree below low
    while len(back_order) < len(adj):
        if not buckets[low]:
            low += 1
            continue
        v = heapq.heappop(buckets[low])
        if deg[v] != low:
            continue
        deg[v] = -1
        d = max(d, low)
        back_order.append(v)
        for w in adj[v]:
            if deg[w] > 0:
                deg[w] -= 1
                heapq.heappush(buckets[deg[w]], w)
        low = max(low - 1, 0)
    return tuple(reversed(back_order)), d


def first_fit(adj: list[set[int]], order: Sequence[int]) -> dict[int, int]:
    """Each vertex's least positive color no neighbor has, along order; exactly 1..max."""
    color = [0] * len(adj)
    for v in order:
        used = set(map(color.__getitem__, adj[v]))
        c = 1
        while c in used:
            c += 1
        color[v] = c
    return {v: color[v] for v in order}


def degeneracy_order(G: UndirectedGraph) -> VertexOrdering:
    """G's smallest-last order and its degeneracy d (smallest_last)."""
    return VertexOrdering(*smallest_last(G._adj))


def orient_by_ordering(G: UndirectedGraph, ordering: VertexOrdering) -> OrientedGraph:
    """Orient every edge from the later endpoint to the earlier one: each
    out-set is the neighbors earlier in the order, built trusted.  An order
    that is not a permutation of the vertices raises ValueError first, since
    two vertices sharing a position would leave their edge without an arc."""
    pos = [-1] * G.n
    for i, v in enumerate(ordering.order):
        pos[v] = i
    if len(ordering.order) != G.n or -1 in pos:
        raise ValueError("ordering is not a permutation of the vertex set")
    out = []
    for v, neighbors in enumerate(G._adj):
        at = pos[v]
        out.append({w for w in neighbors if pos[w] < at})
    return OrientedGraph._from_sets(G.n, out, G.m)


def greedy_color(G: UndirectedGraph, ordering: VertexOrdering) -> VertexColoring:
    """Color vertices along the ordering with the least available positive integer."""
    return VertexColoring(first_fit(G._adj, ordering.order))


def two_dipath_constraint_graph(D: OrientedGraph) -> UndirectedGraph:
    """Vertices joined by an arc or by a directed path u -> w -> v, added both
    ways to a fresh D.underlying()'s sets (u != v, since D is digon-free)."""
    adj, out = D.underlying()._adj, D._out
    for u, mids in enumerate(out):
        for w in mids:
            adj[u].update(out[w])
            for v in out[w]:
                adj[v].add(u)
    return UndirectedGraph._from_sets(D.n, adj, sum(map(len, adj)) // 2)


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


def has_color_conflict(G: UndirectedGraph, colors: Mapping[Edge, int]) -> bool:
    """True when two distinct equal-colored edges of a total coloring conflict in G.

    `colors` must map every normalized edge of G, and only those, to a color
    (verify_injective checks that domain first); e and f conflict exactly
    when a third edge g = xy has e at x and f at y.  One numpy pass sorts the
    (vertex, color) incidences, the k colors numbered by first use and packed
    as vertex * k + color (int32 when n*k allows), then for every edge g looks
    up each color of its end with fewer colors at the other end.  A shared
    color conflicts unless it is g's own and occurs once at x or at y.
    O(m log m), m = len(colors), plus O(log m) for each of at most L = sum
    over g = xy of min(deg x, deg y) lookups, O(d*m) when d-degenerate, in
    blocks of 8192.
    """
    m = len(colors)
    ids = defaultdict(count().__next__)
    own = np.fromiter(map(ids.__getitem__, colors.values()), np.int64, m)
    k = len(ids)
    if G.n * k >= 1 << 63:
        raise ValueError(f"{k} colors on {G.n} vertices overflow the int64 keys")
    key = np.int32 if G.n * k < 1 << 31 else np.int64
    own, ends = own.astype(key), np.fromiter(chain.from_iterable(colors), key, 2 * m).reshape(m, 2)
    incidences = np.sort((ends * key(k) + own[:, None]).ravel())
    starts = np.diff(incidences, prepend=-1) != 0  # of each distinct (vertex, color) pair
    pairs, repeated = incidences[starts], (np.diff(incidences, append=-1) == 0)[starts]
    del incidences, starts
    ncol = np.bincount(pairs // key(k), minlength=G.n).astype(key)  # colors at each vertex
    first = np.cumsum(ncol, dtype=np.int64) - ncol  # index of each vertex's first pair
    width = ncol[ends].min(axis=1)
    reach = np.cumsum(width, dtype=np.int64)  # end of each edge's lookups
    lo, last = 0, len(pairs) - 1
    while lo < m:
        done = reach[lo] - width[lo]
        hi = max(lo + 1, int(np.searchsorted(reach, done + 8192, "right")))
        x, y, size = ends[lo:hi, 0], ends[lo:hi, 1], width[lo:hi]
        s, t = np.where(ncol[x] <= ncol[y], x, y), np.where(ncol[x] <= ncol[y], y, x)
        at_s = np.arange(done, reach[hi - 1]) + np.repeat(first[s] - reach[lo:hi] + size, size)
        pair = pairs[at_s]
        wanted = pair + np.repeat((t - s) * key(k), size)  # the same color at t
        at_t = np.minimum(np.searchsorted(pairs, wanted), last)
        own_pair = np.repeat(s * key(k) + own[lo:hi], size)
        if ((pairs[at_t] == wanted) & ((pair != own_pair) | repeated[at_s] & repeated[at_t])).any():
            return True
        lo = hi
    return False


def is_induced_star_forest(G: UndirectedGraph, edge_set: Iterable[Edge]) -> bool:
    """True when no two edges of the set S conflict, i.e. S is a star forest
    induced in G: no edge g = xy of G has deg_S(x) > [g in S] and
    deg_S(y) > [g in S], deg_S counting S's edges at a vertex.  O(m)."""
    es = dict.fromkeys(normalize_edge(*e) for e in edge_set)
    if stray := next((e for e in es if not G.has_edge(*e)), None):
        raise ValueError(f"{stray} is not an edge of the graph")
    deg = Counter(chain.from_iterable(es))
    return not any(deg[x] > (own := (x, y) in es) and deg[y] > own
                   for x in deg for y in G._adj[x] if x < y)
