"""Injective edge-coloring algorithms.

Two procedures color the arcs leaving an independent set so that every color
class is an induced star forest: a randomized one driven by repeated vertex
sampling, and a deterministic one driven by a separating family over the
colors of a clique-graph coloring.  On top of those sit the full coloring
pipeline for degenerate graphs, the one-subdivision construction, and the
validity verifier.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Sequence

from .graphs import (
    Edge,
    EdgeColoring,
    OrientedGraph,
    UndirectedGraph,
    VertexColoring,
    canonical_color_ids,
    degeneracy_order,
    greedy_color,
    is_induced_star_forest,
    normalize_edge,
    orient_by_ordering,
)
from .oracles import OracleBudget, exact_injective_coloring
from .rng import derive_seed
from .separating import SeparatingFamily

ROUND_LIMIT_FACTOR = 64


class RoundLimitExceededError(RuntimeError):
    """The sampling rounds ran out before every arc was colored.

    Astronomically unlikely for any seed; callers retry with a new one.
    """


class FamilyTooWeakError(RuntimeError):
    """A separating family failed to cover some arc, which its invariant forbids."""


class InvalidColoringError(ValueError):
    """A supplied coloring violates the contract the operation relies on."""


def _out_arcs_of_independent(D: OrientedGraph, X: Iterable[int]) -> tuple[list[int], list[Edge]]:
    """X sorted, and the sorted arcs leaving it; raises unless X is independent."""
    members = sorted(set(X))
    xset = set(members)
    for x in members:
        if not D.out_neighbors(x).isdisjoint(xset) or not D.in_neighbors(x).isdisjoint(xset):
            raise ValueError(f"vertex set is not independent: {x} has a neighbor inside it")
    return members, D.arcs_out_of(members)


def _sole_hits(D: OrientedGraph, members: list[int], selected: set[int]) -> dict[int, int]:
    """Map each member whose out-neighborhood meets `selected` in exactly one
    vertex to that vertex."""
    chosen: dict[int, int] = {}
    for x in members:
        hit = None
        count = 0
        for a in D.out_neighbors(x):
            if a in selected:
                count += 1
                if count > 1:
                    break
                hit = a
        if count == 1:
            chosen[x] = hit
    return chosen


def _shades(D: OrientedGraph, aux_members: Iterable[int], head_of: dict[int, int]) -> dict[int, int]:
    """Shade of each head in head_of's values: a greedy proper coloring of the
    graph on aux_members (a superset of the heads) joining a to w for each arc
    a -> w inside it and a to head_of[x] != a for each arc a -> x."""
    members = sorted(aux_members)
    index = {v: i for i, v in enumerate(members)}
    arc_pairs: set[Edge] = set()
    for a in members:
        ia = index[a]
        for w in D.out_neighbors(a):
            if w in index:
                arc_pairs.add(normalize_edge(ia, index[w]))
            elif w in head_of and head_of[w] != a:
                arc_pairs.add(normalize_edge(ia, index[head_of[w]]))
    aux = UndirectedGraph(len(members), arc_pairs)
    shades = greedy_color(aux, degeneracy_order(aux))
    return {a: shades[index[a]] for a in head_of.values()}


def color_arcs_randomized(D: OrientedGraph, X: Iterable[int], rng_seed: int = 0) -> EdgeColoring:
    """Color all arcs leaving the independent set X into induced star forests.

    Rounds c = 1, 2, ... each sample a subset S_c of the other vertices with
    per-vertex probability 1/d, where d is the largest out-degree inside X.
    A vertex x in X whose out-neighborhood meets S_c in exactly one vertex a
    colors the arc (x, a) with c, overwriting any earlier color.  After
    ceil(4*e*d*ln(max_degree)) rounds, extra rounds run only while arcs
    remain uncolored, up to 64 times the nominal count.  A final pass splits
    each round color into shades via a proper coloring of an auxiliary graph
    on S_c, which is what forces every class to be an induced star forest.
    """
    members, targets = _out_arcs_of_independent(D, X)
    if not targets:
        return EdgeColoring({})
    d = max(D.out_degree(x) for x in members)
    max_degree = D.underlying().max_degree
    nominal = max(1, math.ceil(4 * math.e * d * math.log(max_degree))) if max_degree > 1 else 1
    limit = ROUND_LIMIT_FACTOR * nominal

    rng = random.Random(rng_seed)
    prob = 1.0 / d
    xset = set(members)
    others = [v for v in range(D.n) if v not in xset]
    round_of: dict[Edge, int] = {}
    samples: list[set[int]] = []
    uncolored = len(targets)
    rounds = 0
    while rounds < nominal or (uncolored and rounds < limit):
        rounds += 1
        sample = {a for a in others if rng.random() < prob}
        samples.append(sample)
        for arc in _sole_hits(D, members, sample).items():
            if arc not in round_of:
                uncolored -= 1
            round_of[arc] = rounds
    if uncolored:
        raise RoundLimitExceededError(
            f"{uncolored} arcs uncolored after {rounds} rounds (seed {rng_seed})"
        )

    by_round: dict[int, list[Edge]] = {}
    for arc, c in round_of.items():
        by_round.setdefault(c, []).append(arc)

    colored: dict[Edge, tuple[int, int]] = {}
    for c in sorted(by_round):
        shades = _shades(D, samples[c - 1], dict(by_round[c]))
        for x, a in by_round[c]:
            colored[normalize_edge(x, a)] = (c, shades[a])
    return EdgeColoring(canonical_color_ids(colored))


def color_arcs_deterministic(
    D: OrientedGraph,
    X: Iterable[int],
    hcol: VertexColoring,
    family: SeparatingFamily,
) -> EdgeColoring:
    """Deterministic version of color_arcs_randomized.

    hcol must give distinct colors to the out-neighborhood of every x in X
    (a proper coloring of the graph joining co-out-neighbors), with colors
    inside the family's universe, and the family's separation order must be
    at least the largest out-degree in X.  Each family member P_i selects
    the x with exactly one out-neighbor colored inside P_i; an auxiliary
    graph supplies the shade, and later members overwrite earlier colors.
    """
    members, arcs = _out_arcs_of_independent(D, X)
    if not arcs:
        return EdgeColoring({})
    d = max(D.out_degree(x) for x in members)
    if family.r < d:
        raise ValueError(
            f"family separation order {family.r} is below the maximum out-degree {d}"
        )
    for x in members:
        cols = []
        for a in D.out_neighbors(x):
            c = hcol.colors.get(a)
            if c is None:
                raise InvalidColoringError(f"vertex {a} has no color")
            if not 1 <= c <= family.k:
                raise InvalidColoringError(
                    f"color {c} of vertex {a} falls outside the family universe 1..{family.k}"
                )
            cols.append(c)
        if len(set(cols)) != len(cols):
            raise InvalidColoringError(
                f"out-neighbors of {x} share a color; the coloring is not proper "
                "on the co-out-neighborhood graph"
            )

    heads = {a for _, a in arcs}
    pending: dict[Edge, tuple[int, int]] = {}
    for i, subset in enumerate(family.sets, start=1):
        chosen = _sole_hits(D, members, {a for a in heads if hcol[a] in subset})
        if not chosen:
            continue
        shades = _shades(D, set(chosen.values()), chosen)
        for x, z in chosen.items():
            pending[(x, z)] = (i, shades[z])

    if len(pending) != len(arcs):
        missing = sorted(set(arcs) - set(pending))
        raise FamilyTooWeakError(f"family left {len(missing)} arcs uncolored, e.g. {missing[:3]}")
    return EdgeColoring(
        canonical_color_ids({normalize_edge(x, a): c for (x, a), c in pending.items()})
    )


def injective_color_degenerate(G: UndirectedGraph, rng_seed: int = 0) -> EdgeColoring:
    """Injective edge coloring of a degenerate graph.

    Orders the vertices by degeneracy, orients edges toward earlier vertices,
    and colors the arcs of each greedy color class with color_arcs_randomized
    under disjoint color namespaces.  With degeneracy d and maximum degree
    at least 3 this uses at most ceil(4*e*d*ln(max_degree))*(2d+1)*(d+1)
    colors.  Graphs of maximum degree at most 2 (disjoint paths and cycles)
    fall back to the exact solver.
    """
    if G.n == 0:
        raise ValueError("graph must be nonempty")
    if G.m == 0:
        return EdgeColoring({})
    if G.max_degree <= 2:
        budget = OracleBudget(max_vertices=max(12, G.n), max_edges=max(24, G.m), timeout=60.0)
        return exact_injective_coloring(G, budget)
    ordering = degeneracy_order(G)
    D = orient_by_ordering(G, ordering)
    coloring, _ = color_greedy_classes(
        D, range(G.n), greedy_color(G, ordering),
        lambda cls, X: color_arcs_randomized(D, X, derive_seed(rng_seed, cls)),
    )
    return coloring


def color_greedy_classes(
    D: OrientedGraph,
    vertices: Sequence[int],
    proper: VertexColoring,
    color_class: Callable[[int, list[int]], EdgeColoring],
) -> tuple[EdgeColoring, dict[str, int]]:
    """Color the arcs leaving the given vertices, one greedy class at a time.

    color_class(cls, X) colors the arcs leaving class X (members in the given
    order); its colors are shifted past those of earlier classes, so classes
    never share a color.  Classes without out-arcs are skipped.  Returns the
    merged coloring and each class's color count under "class_<cls>".
    """
    classes: dict[int, list[int]] = {}
    for v in vertices:
        classes.setdefault(proper[v], []).append(v)
    merged: dict[Edge, int] = {}
    phase_colors: dict[str, int] = {}
    offset = 0
    for cls in sorted(classes):
        X = classes[cls]
        if not any(D.out_degree(x) for x in X):
            continue
        part = color_class(cls, X)
        for e, c in part.colors.items():
            merged[e] = offset + c
        offset += part.k
        phase_colors[f"class_{cls}"] = part.k
    if len(merged) != sum(D.out_degree(v) for v in vertices):
        raise RuntimeError("internal error: some edge was never assigned a color")
    return EdgeColoring(merged), phase_colors


def _subdivide_with_midpoints(G: UndirectedGraph) -> tuple[UndirectedGraph, dict[Edge, int]]:
    midpoints: dict[Edge, int] = {}
    new_edges: list[Edge] = []
    for i, (u, v) in enumerate(G.edges()):
        w = G.n + i
        midpoints[(u, v)] = w
        new_edges.append((u, w))
        new_edges.append((w, v))
    return UndirectedGraph(G.n + G.m, new_edges), midpoints


def subdivide(G: UndirectedGraph) -> UndirectedGraph:
    """Replace each edge uv by a path u-w-v through a fresh midpoint.

    Midpoints are numbered n, n+1, ... in lexicographic edge order.
    """
    graph, _ = _subdivide_with_midpoints(G)
    return graph


def injective_color_subdivision(G: UndirectedGraph, proper: VertexColoring) -> EdgeColoring:
    """Injective edge coloring of subdivide(G) with at most 2*ceil(log2 k) colors.

    Writes each of the k proper colors as a t-bit string, t = ceil(log2 k).
    For edge uv with midpoint w, let i be the least bit where the strings of
    u and v differ; the half edge uw gets (i, bit_i(u)) and wv gets
    (i, bit_i(v)).  Classes decompose along the bipartite graphs formed by
    each bit, which is what makes the result injective.
    """
    for u, v in G.edges():
        cu = proper.colors.get(u)
        cv = proper.colors.get(v)
        if cu is None or cv is None:
            raise InvalidColoringError("coloring must cover every vertex")
        if cu == cv:
            raise InvalidColoringError(f"edge ({u}, {v}) is monochromatic")
    graph2, midpoints = _subdivide_with_midpoints(G)
    if G.m == 0:
        return EdgeColoring({})
    codes = canonical_color_ids(proper.colors)
    assign: dict[Edge, tuple[int, int]] = {}
    for u, v in G.edges():
        cu = codes[u] - 1
        cv = codes[v] - 1
        diff = cu ^ cv
        i = (diff & -diff).bit_length() - 1
        w = midpoints[(u, v)]
        assign[normalize_edge(u, w)] = (i, (cu >> i) & 1)
        assign[normalize_edge(w, v)] = (i, (cv >> i) & 1)
    assert graph2.m == len(assign)
    return EdgeColoring(canonical_color_ids(assign))


def verify_injective(G: UndirectedGraph, coloring: EdgeColoring) -> bool:
    """True iff every color class is an induced star forest.

    Equivalently, no two equal-colored edges are joined by a third edge.
    Raises when the coloring is not total on E(G).
    """
    edge_list = G.edges()
    for e in edge_list:
        if e not in coloring.colors:
            raise InvalidColoringError(f"edge {e} has no color")
    if len(coloring.colors) != len(edge_list):
        extra = set(coloring.colors) - set(edge_list)
        raise InvalidColoringError(f"colored non-edges present, e.g. {sorted(extra)[:3]}")
    for edges in coloring.classes().values():
        if not is_induced_star_forest(G, edges):
            return False
    return True
