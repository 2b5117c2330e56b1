"""Injective edge-coloring algorithms.

Two procedures color the arcs leaving an independent set so that every color
class is an induced star forest: a randomized one driven by repeated vertex
sampling, and a deterministic one driven by a separating family over the
colors of a clique-graph coloring.  The class step of all three injective
pipelines, color_greedy_classes, shades singleton rounds itself (each arc's
round is its head's color) when they are few enough and else runs the
randomized procedure.  Also here: the degenerate-graph pipeline, the
one-subdivision construction, and the validity verifier.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from .errors import InjcolorError, InvalidColoringError
from .graphs import (
    Edge,
    EdgeColoring,
    OrientedGraph,
    UndirectedGraph,
    VertexColoring,
    canonical_color_ids,
    check_domain,
    degeneracy_order,
    first_fit,
    greedy_color,
    has_color_conflict,
    normalize_edge,
    orient_by_ordering,
    smallest_last,
)
from .hypergraphs import neighborhood_hypergraph, peel_color_clique_graph
from .rng import derive_seed
from .separating import SeparatingFamily

ROUND_LIMIT_FACTOR = 64


class RoundLimitExceededError(RuntimeError, InjcolorError):
    """The sampling rounds ran out before every arc was colored.

    Astronomically unlikely for any seed.  Nothing retries: the CLI exits 1,
    and a run with another seed draws new rounds.
    """


class FamilyTooWeakError(RuntimeError, InjcolorError):
    """A separating family failed to cover some arc, which its invariant forbids."""


def _out_arcs_of_independent(D: OrientedGraph, X: Iterable[int]) -> tuple[list[int], list[Edge]]:
    """X sorted, and the sorted arcs leaving it; raises unless X is independent,
    which the out-neighbors alone decide: an edge inside X leaves one of its ends."""
    members = sorted(set(X))
    xset = set(members)
    for x in members:
        if not D.out_neighbors(x).isdisjoint(xset):
            raise ValueError(f"vertex set is not independent: {x} has a neighbor inside it")
    return members, D.arcs_out_of(members)


def _last_sole_rounds(D: OrientedGraph, tails: list[int], mask: dict[int, int]) -> dict[Edge, int]:
    """Map each arc (x, a) leaving tails to the last round r in which a was
    x's only selected out-neighbor, if any; bit r - 1 of mask[a] marks a as
    selected in round r.  Per tail, `one` and `two` hold the rounds selecting
    at least one and at least two heads, so r is the top bit of mask[a] & one & ~two."""
    round_of: dict[Edge, int] = {}
    for x in tails:
        heads = D.out_neighbors(x)
        one = two = 0
        for a in heads:
            two |= one & mask[a]
            one |= mask[a]
        sole = one & ~two
        for a in heads:
            if r := (mask[a] & sole).bit_length():
                round_of[(x, a)] = r
    return round_of


def _shade_rounds(D: OrientedGraph, round_of: dict[Edge, int]) -> EdgeColoring:
    """Color each arc (x, a) by its round c = round_of[(x, a)] and a shade.

    Within one round every tail x keeps at most one arc, so head_of maps each
    tail to its head.  Two round-c arcs conflict only through an arc between
    their heads or an arc from one head into the other arc's tail, so the
    shades are a first-fit coloring, in smallest-last order, of the graph on
    the round's heads joining a to w for each arc a -> w between heads and a
    to head_of[x] != a for each arc a -> x into a tail of the round, built as
    adjacency sets in O(sum of the heads' out-degrees).  Shades are exactly
    1..s, so offset + shade, rounds ascending, is the canonical id of (round, shade).
    """
    by_round: dict[int, dict[int, int]] = {}
    for (x, a), c in round_of.items():
        by_round.setdefault(c, {})[x] = a
    colored, offset = {}, 0
    for c in sorted(by_round):
        head_of = by_round[c]
        heads = sorted(set(head_of.values()))
        index = {a: i for i, a in enumerate(heads)}
        to_head = {**{x: index[a] for x, a in head_of.items()}, **index}  # tails, then heads
        adj: list[set[int]] = [set() for _ in heads]
        for i, a in enumerate(heads):
            for w in D.out_neighbors(a):
                j = to_head.get(w, i)
                if j != i:
                    adj[i].add(j)
                    adj[j].add(i)
        shade = first_fit(adj, smallest_last(adj)[0])
        for x, a in head_of.items():
            colored[(x, a) if x < a else (a, x)] = offset + shade[index[a]]
        offset += max(shade.values())
    return EdgeColoring._from_normalized(colored)


def _nominal_rounds(d: int, max_degree: int) -> int:
    """ceil(4*e*d*ln(max_degree)), at least 1: color_arcs_randomized's round count."""
    return max(1, math.ceil(4 * math.e * d * math.log(max_degree))) if max_degree > 1 else 1


def _max_degree(D: OrientedGraph) -> int:
    """The largest out-degree plus in-degree of a vertex of D."""
    degree = [D.out_degree(v) for v in range(D.n)]
    for v in range(D.n):
        for w in D.out_neighbors(v):
            degree[w] += 1
    return max(degree, default=0)


def color_arcs_randomized(D: OrientedGraph, X: Iterable[int], rng_seed: int = 0) -> EdgeColoring:
    """Color all arcs leaving the independent set X into induced star forests.

    Rounds c = 1, 2, ... each sample a subset S_c of the other vertices with
    per-vertex probability 1/d, d the largest out-degree inside X, and the
    arc (x, a) keeps the last c in which a was x's only out-neighbor in S_c
    (_last_sole_rounds).  After ceil(4*e*d*ln(max_degree)) rounds, extra
    rounds run one at a time while arcs remain uncolored, up to
    ROUND_LIMIT_FACTOR times that count.  An arc that has a sole round keeps
    one, so an extra round rescans only the tails with an uncolored arc, and
    one last pass over all tails reads their final rounds.  _shade_rounds then
    splits each round into shades via a proper coloring of an auxiliary graph
    on its heads, which makes every class an induced star forest.
    """
    members, targets = _out_arcs_of_independent(D, X)
    if not targets:
        return EdgeColoring({})
    d = max(D.out_degree(x) for x in members)
    nominal = _nominal_rounds(d, _max_degree(D))
    limit = ROUND_LIMIT_FACTOR * nominal

    rng = random.Random(rng_seed)
    prob = 1.0 / d
    xset = set(members)
    others = [v for v in range(D.n) if v not in xset]
    mask = dict.fromkeys(others, 0)
    pending, pending_arcs = members, len(targets)
    for rounds in range(1, limit + 1):
        for a in others:
            if rng.random() < prob:
                mask[a] |= 1 << (rounds - 1)
        if rounds < nominal:
            continue
        round_of = _last_sole_rounds(D, pending, mask)
        missing = pending_arcs - len(round_of)
        if not missing:
            break
        pending = [x for x in pending if any((x, a) not in round_of for a in D.out_neighbors(x))]
        pending_arcs = sum(D.out_degree(x) for x in pending)
    else:
        raise RoundLimitExceededError(f"{missing} arcs uncolored after {limit} rounds "
                                      f"(seed {rng_seed})")
    if pending is not members:
        round_of = _last_sole_rounds(D, members, mask)
    return _shade_rounds(D, round_of)


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
    at least the largest out-degree in X.  Family member P_i is round i and
    selects the heads colored inside it, so head a's round mask is that of
    its color hcol[a]; the arcs then get their last sole rounds and shades
    as in color_arcs_randomized.
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

    member_bits = [0] * (family.k + 1)
    for i, subset in enumerate(family.sets):
        for c in subset:
            member_bits[c] |= 1 << i
    round_of = _last_sole_rounds(D, members, {a: member_bits[hcol[a]] for _, a in arcs})
    if len(round_of) != len(arcs):
        missing = sorted(set(arcs) - set(round_of))
        raise FamilyTooWeakError(f"family left {len(missing)} arcs uncolored, e.g. {missing[:3]}")
    return _shade_rounds(D, round_of)


def injective_color_degenerate(G: UndirectedGraph, rng_seed: int = 0,
                               report: dict | None = None) -> EdgeColoring:
    """Injective edge coloring of a degenerate graph.

    Orients edges toward earlier vertices of the degeneracy order and colors
    each greedy class with color_greedy_classes, whose fallback is
    color_arcs_randomized in ceil(4*e*d_X*ln(max_degree)) rounds, d_X the
    class's largest out-degree.  Either route takes at most that many rounds
    of at most 2d+1 shades, so degeneracy d gives at most
    ceil(4*e*d*ln(max_degree))*(2d+1)*(d+1) colors.  Maximum degree at most
    2 (paths and cycles, and the empty graph) gets an optimal closed form
    (_color_paths_and_cycles).  A report dict, if given, receives the class
    step's per-class stats.
    """
    if G.max_degree <= 2:
        return _color_paths_and_cycles(G)
    ordering = degeneracy_order(G)
    coloring, phase_colors, stats = color_greedy_classes(
        orient_by_ordering(G, ordering), range(G.n), greedy_color(G, ordering), rng_seed)
    if report is not None:
        report.update(stats, phase_colors=phase_colors)
    return coloring


def _color_paths_and_cycles(G: UndirectedGraph) -> EdgeColoring:
    """Optimal injective coloring of a graph of maximum degree at most 2.

    Only edges two steps apart on a path or cycle conflict.  Each component's
    edges e_0, e_1, ... in walk order are colored along the chains
    e_i, e_{i+2}, ... alternating 1 and 2, i.e. in the pattern 1,1,2,2, so a
    path uses 1 color up to 2 edges and 2 beyond.  On a cycle C_k the chains
    close up; one of odd length (k not divisible by 4) ends in color 3.
    These counts are optimal (Cardoso et al., Filomat 2019).
    """
    colors: dict[Edge, int] = {}
    seen = [False] * G.n
    ends = [v for v in range(G.n) if G.degree(v) == 1]
    for s in ends + list(range(G.n)):
        if seen[s] or not G.degree(s):
            continue
        seen[s] = True
        walk = [s]
        v = s
        while nxt := [w for w in G.neighbors(v) if not seen[w]]:
            v = min(nxt)
            seen[v] = True
            walk.append(v)
        edges = list(zip(walk, walk[1:]))
        closed = G.degree(s) == 2
        if closed:
            edges.append((walk[-1], s))
        k = len(edges)
        for i, (u, v) in enumerate(edges):
            if closed and k % 2:  # one chain: e_0, e_2, ..., e_{k-1}, e_1, ..., e_{k-2}
                t, length = (i + k * (i % 2)) // 2, k
            else:  # chains of the even and of the odd positions
                t, length = i // 2, k // 2
            ends_odd_chain = closed and length % 2 == 1 and t == length - 1
            colors[normalize_edge(u, v)] = 3 if ends_odd_chain else 1 + t % 2
    return EdgeColoring(colors)


def color_greedy_classes(
    D: OrientedGraph,
    vertices: Sequence[int],
    proper: VertexColoring,
    rng_seed: int,
    genus: int | None = None,
) -> tuple[EdgeColoring, dict[str, int], dict[str, dict]]:
    """Color the arcs leaving the given vertices, one greedy class X at a time.

    X's heads are peel-colored (warning against an asserted genus), so each
    out-neighborhood is rainbow in k colors hcol.  color_arcs_randomized
    would color X in R = ceil(4*e*d*ln(max_degree)) rounds, d the largest
    out-degree in X and max_degree the largest degree in D; when 2k is at
    most R, singleton rounds color X instead: arc (x, a) is x's only arc in
    round hcol[a], so _shade_rounds takes those rounds as they are, which is
    what color_arcs_deterministic gives with the family {1}, ..., {k}, less
    its checks.  Otherwise color_arcs_randomized colors X with the seed
    derive_seed(rng_seed, cls).  Either way X takes at most min(R, 2k - 1)
    rounds, bar astronomically rare extra ones.  Returns the coloring,
    classes sharing no color, and per class with out-arcs ("class_<cls>")
    its colors, peel_colors and class_routes.
    """
    classes: dict[int, list[int]] = {}
    for v in vertices:
        classes.setdefault(proper[v], []).append(v)
    merged: dict[Edge, int] = {}
    phase_colors: dict[str, int] = {}
    stats: dict[str, dict] = {"peel_colors": {}, "class_routes": {}}
    offset, max_degree = 0, _max_degree(D)
    for cls in sorted(classes):
        X = classes[cls]
        d = max(D.out_degree(x) for x in X)
        if not d:
            continue
        hyperedges, heads = neighborhood_hypergraph(D, X)
        dense = peel_color_clique_graph(hyperedges, genus=genus)
        k = dense.k
        if 2 * k <= _nominal_rounds(d, max_degree):
            route = "singletons"
            hcol = {heads[i]: c for i, c in dense.colors.items()}
            part = _shade_rounds(D, {(x, a): hcol[a] for x in X for a in D.out_neighbors(x)})
        else:
            route = "randomized"
            part = color_arcs_randomized(D, X, derive_seed(rng_seed, cls))
        merged.update((e, offset + c) for e, c in part.colors.items())
        offset += part.k
        key = f"class_{cls}"
        phase_colors[key], stats["peel_colors"][key], stats["class_routes"][key] = part.k, k, route
    if len(merged) != sum(D.out_degree(v) for v in vertices):
        raise RuntimeError("internal error: some edge was never assigned a color")
    return EdgeColoring._from_normalized(merged), phase_colors, stats


def subdivide(G: UndirectedGraph) -> UndirectedGraph:
    """Replace each edge uv by a path u-w-v through a fresh midpoint.

    Midpoints are numbered n, n+1, ... in lexicographic edge order.
    """
    new_edges: list[Edge] = []
    for i, (u, v) in enumerate(G.edges()):
        w = G.n + i
        new_edges.append((u, w))
        new_edges.append((w, v))
    return UndirectedGraph(G.n + G.m, new_edges)


def injective_color_subdivision(G: UndirectedGraph, proper: VertexColoring) -> EdgeColoring:
    """Injective edge coloring of subdivide(G) with at most 2*ceil(log2 k) colors.

    Writes each of the k proper colors as a t-bit string, t = ceil(log2 k).
    For edge uv with midpoint w, let i be the least bit where the strings of
    u and v differ; the half edge uw gets (i, bit_i(u)) and wv gets
    (i, bit_i(v)).  Classes decompose along the bipartite graphs formed by
    each bit, which is what makes the result injective.
    """
    check_domain(G, proper)
    codes = canonical_color_ids(proper.colors)
    assign: dict[Edge, tuple[int, int]] = {}
    for j, (u, v) in enumerate(G.edges()):
        cu, cv = codes[u] - 1, codes[v] - 1
        diff = cu ^ cv
        if not diff:
            raise InvalidColoringError(f"edge ({u}, {v}) is monochromatic")
        i = (diff & -diff).bit_length() - 1
        w = G.n + j  # the midpoint subdivide gives the j-th edge
        assign[normalize_edge(u, w)] = (i, (cu >> i) & 1)
        assign[normalize_edge(w, v)] = (i, (cv >> i) & 1)
    return EdgeColoring(canonical_color_ids(assign))


def verify_injective(G: UndirectedGraph, coloring: EdgeColoring) -> bool:
    """True iff every color class is an induced star forest.

    Equivalently, no two equal-colored edges are joined by a third edge.
    check_domain refuses any other domain than E(G), in O(m) Python steps.  One
    numpy pass (has_color_conflict) checks all classes at once in O((m + L) log m)
    time, L = sum over edges xy of min(deg x, deg y), which is O(d*m) when d-degenerate.
    """
    check_domain(G, coloring)
    return not has_color_conflict(G, coloring.colors)
