"""Reference implementations written straight from the definitions.

Everything here deliberately avoids the package's own predicates and solvers
so that package results can be cross-checked against an independent route on
tiny instances.  Graphs are passed as (n, edge list) or (n, arc list), or as
the package's UndirectedGraph where a reference walks its neighbor sets.
The last two walk an OrientedGraph through its public accessors (sorted
arcs, in-neighbors, the coloring's own lookups), a second route to check the
package's one-pass walks over the out-sets against.
"""

import math
import random
from itertools import combinations

from injcolor import UndirectedGraph, VertexColoring
from injcolor.graphs import canonical_color_ids, check_domain


def _adj(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def third_edge_joins(n, edges, e, f):
    """Some edge other than e and f connects an endpoint of e with one of f."""
    eset = {frozenset(e), frozenset(f)}
    all_edges = {frozenset(x) for x in edges}
    for x in e:
        for y in f:
            if x != y and frozenset((x, y)) in all_edges and frozenset((x, y)) not in eset:
                return True
    return False


def injective_assignment_valid(n, edges, colors):
    """colors: dict from frozenset edge to color id."""
    items = list(colors.items())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (e, ce), (f, cf) = items[i], items[j]
            if ce == cf and third_edge_joins(n, edges, tuple(e), tuple(f)):
                return False
    return True


def min_injective_colors(n, edges):
    """Smallest k admitting an injective edge coloring, by canonical search."""
    edges = [frozenset(e) for e in edges]
    m = len(edges)
    if m == 0:
        return 0

    def extend(colors, idx, k):
        if idx == m:
            return True
        e = edges[idx]
        used = max(colors.values(), default=0)
        for c in range(1, min(k, used + 1) + 1):
            ok = True
            for f, cf in colors.items():
                if cf == c and third_edge_joins(n, edges, tuple(e), tuple(f)):
                    ok = False
                    break
            if ok:
                colors[e] = c
                if extend(colors, idx + 1, k):
                    return True
                del colors[e]
        return False

    for k in range(1, m + 1):
        if extend({}, 0, k):
            return k
    return m


def proper_valid(n, edges, colors):
    return all(colors[u] != colors[v] for u, v in edges)


def min_chromatic(n, edges):
    if n == 0:
        return 0

    def extend(colors, v, k):
        if v == n:
            return True
        used = max(colors[:v], default=0)
        for c in range(1, min(k, used + 1) + 1):
            conflict = any(
                (a == v and b < v and colors[b] == c) or (b == v and a < v and colors[a] == c)
                for a, b in edges
            )
            if not conflict:
                colors[v] = c
                if extend(colors, v + 1, k):
                    return True
                colors[v] = 0
        return False

    for k in range(1, n + 1):
        if extend([0] * n, 0, k):
            return k
    return n


def dsatur_reference(n, edges, k, clique):
    """Brelaz's DSATUR search for a k-coloring, from its definition, with
    the clique precolored 1, 2, ... in order.  Each step colors the
    uncolored vertex with the most distinct colors on its neighbors (its
    saturation), then the highest degree, then the lowest id, and tries in
    ascending order each color up to min(k, highest color used + 1) that no
    neighbor has.  Returns the number of steps (one per state, the first one
    included), the coloring or None, and the highest saturation of a vertex
    a step picked."""
    adj = _adj(n, edges)
    colors = {u: i + 1 for i, u in enumerate(clique)}
    steps = top = 0

    def saturation(v):
        return len({colors[w] for w in adj[v] if w in colors})

    def search(used):
        nonlocal steps, top
        steps += 1
        uncolored = [v for v in range(n) if v not in colors]
        if not uncolored:
            return True
        v = max(uncolored, key=lambda v: (saturation(v), len(adj[v]), -v))
        top = max(top, saturation(v))
        for c in range(1, min(k, used + 1) + 1):
            if all(colors.get(w) != c for w in adj[v]):
                colors[v] = c
                if search(max(used, c)):
                    return True
                del colors[v]
        return False

    found = search(len(clique))
    return steps, dict(colors) if found else None, top


def oriented_assignment_valid(arcs, colors):
    """No two arcs (including an arc with itself) realize reversed color pairs."""
    for (u, v) in arcs:
        for (vp, up) in arcs:
            if colors[u] == colors[up] and colors[v] == colors[vp]:
                return False
    return True


def canonical_assignments(n, k):
    """Every map from n vertices to k colors up to renaming the colors: each
    vertex takes a color already used or the least unused one.  Both
    validity tests below are blind to renaming, so these suffice."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(min(k, used + 1)):
            prefix.append(c)
            yield from grow(prefix, max(used, c + 1))
            prefix.pop()

    return grow([], 0)


def min_oriented(n, arcs):
    if n == 0:
        return 0
    for k in range(1, n + 1):
        if any(oriented_assignment_valid(arcs, a) for a in canonical_assignments(n, k)):
            return k
    return n


def dipath2_assignment_valid(n, arcs, colors):
    arc_set = set(arcs)
    for u, v in arcs:
        if colors[u] == colors[v]:
            return False
    for u, w in arcs:
        for w2, v in arcs:
            if w2 == w and u != v and colors[u] == colors[v]:
                return False
    return True


def two_dipath_pairs(n, arcs):
    """The 2-dipath constraint graph's edges by definition, from a scan over
    all triples: each pair u < v joined by an arc either way, or by a
    directed path u -> w -> v or v -> w -> u; sorted."""
    arc = set(arcs)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) in arc or (v, u) in arc
            or any((u, w) in arc and (w, v) in arc or (v, w) in arc and (w, u) in arc
                   for w in range(n))]


def min_2dipath(n, arcs):
    if n == 0:
        return 0
    for k in range(1, n + 1):
        if any(dipath2_assignment_valid(n, arcs, a) for a in canonical_assignments(n, k)):
            return k
    return n


def exact_degeneracy(n, edges):
    """max over nonempty subsets of the minimum degree inside the subset."""
    best = 0
    adj = _adj(n, edges)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            s = set(subset)
            mindeg = min(len(adj[v] & s) for v in subset)
            best = max(best, mindeg)
    return best


def degeneracy_order_reference(n, edges):
    """Smallest-last order from the definition, in O(n^2) steps: remove the
    vertex of least (degree among the vertices left, id) until none is left.
    Returns the removals in reverse and the largest degree seen at removal."""
    adj = _adj(n, edges)
    degree = [len(a) for a in adj]
    left = set(range(n))
    removals, d = [], 0
    while left:
        v = min(left, key=lambda x: (degree[x], x))
        d = max(d, degree[v])
        left.remove(v)
        removals.append(v)
        for w in adj[v] & left:
            degree[w] -= 1
    return tuple(reversed(removals)), d


def in_masks(out_masks):
    """In-neighbor bitmasks from out-neighbor bitmasks, one set bit at a time:
    bit v of out_masks[u] sets bit u of the result's entry v."""
    masks = [0] * len(out_masks)
    for u, rest in enumerate(out_masks):
        while rest:
            low = rest & -rest
            masks[low.bit_length() - 1] |= 1 << u
            rest ^= low
    return masks


def sole_hits(out, tails, selected):
    """Map each tail whose out-neighbors out[tail] include exactly one
    selected vertex to that vertex."""
    hits = {x: [a for a in out[x] if a in selected] for x in tails}
    return {x: h[0] for x, h in hits.items() if len(h) == 1}


def last_sole_rounds(arcs, tails, selections):
    """Round by round, each tail whose out-neighborhood meets the selected set
    selections[r - 1] in exactly one vertex a maps (tail, a) to r, later
    rounds overwriting earlier ones."""
    out = {x: [a for t, a in arcs if t == x] for x in tails}
    round_of = {}
    for r, selected in enumerate(selections, start=1):
        for x, a in sole_hits(out, tails, selected).items():
            round_of[(x, a)] = r
    return round_of


def randomized_rounds(n, arcs, X, seed, round_limit_factor=64):
    """The rounds of the randomized arc colorer, drawn one round at a time.

    Each round samples every vertex outside X with probability 1/d, d the
    largest out-degree in X, and overwrites the rounds of its sole hits as in
    last_sole_rounds.  Rounds continue past the nominal
    ceil(4 e d ln(max degree)) while some arc leaving X has no round, up to
    round_limit_factor times the nominal count.  Returns the map of arcs to
    rounds and the number of rounds drawn.
    """
    xset = set(X)
    tails = sorted(xset)
    out = {x: [] for x in tails}
    degree = [0] * n
    for t, a in arcs:
        degree[t] += 1
        degree[a] += 1
        if t in xset:
            out[t].append(a)
    d = max(len(out[x]) for x in tails)
    max_degree = max(degree)
    nominal = max(1, math.ceil(4 * math.e * d * math.log(max_degree))) if max_degree > 1 else 1
    leaving = sum(len(heads) for heads in out.values())
    rng = random.Random(seed)
    round_of = {}
    rounds = 0
    while rounds < nominal or (len(round_of) < leaving and rounds < round_limit_factor * nominal):
        rounds += 1
        selected = {v for v in range(n) if v not in xset and rng.random() < 1 / d}
        for x, a in sole_hits(out, tails, selected).items():
            round_of[(x, a)] = rounds
    return round_of, rounds


def dimacs_text(n, pairs, kind):
    """DIMACS graph text with one f-string per line: the problem line, then
    the pairs in lexicographic order.  kind is "edge" (pairs given as
    (min, max)) or "arc" (pairs given as (tail, head))."""
    tag = "e" if kind == "edge" else "a"
    lines = [f"p {kind} {n} {len(pairs)}"]
    lines.extend(f"{tag} {u + 1} {v + 1}" for u, v in sorted(pairs))
    return "\n".join(lines) + "\n"


def full_graph_out_masks_reference(rng, n, part_size):
    """Out-masks of a random orientation of the complete multipartite graph
    with parts of part_size vertices, one rng.random() coin per pair u < v of
    different parts in the order u, then v: u -> v when it falls below 0.5."""
    out = [0] * n
    for u in range(n):
        start = (u // part_size + 1) * part_size
        for v in range(start, n):
            if rng.random() < 0.5:
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
    return out


def first_fit_reference(n, edges, order):
    """Color along order with the least positive integer no colored neighbor has."""
    adj = _adj(n, edges)
    colors = {}
    for v in order:
        c = 1
        while any(colors.get(w) == c for w in adj[v]):
            c += 1
        colors[v] = c
    return colors


def clique_graph(hyperedges):
    """Two ids adjacent iff they co-occur in some hyperedge; the vertex count
    is the largest id plus one."""
    n = max((max(e) + 1 for e in hyperedges if e), default=0)
    return UndirectedGraph(n, (p for e in hyperedges for p in combinations(sorted(e), 2)))


def has_color_conflict_reference(G, colors):
    """The per-vertex dict form of has_color_conflict, its reference: count
    the colored edges of each color at each vertex, and ask of every
    G-edge g = xy between touched vertices whether a color occurs at both
    ends once g itself is left out.  colors maps normalized edges of G, any
    part of E(G), to colors."""
    at = {}
    for e, c in colors.items():
        for w in e:
            count = at.setdefault(w, {})
            count[c] = count.get(c, 0) + 1
    for x, at_x in at.items():
        for y in G.neighbors(x):
            if y < x or y not in at:
                continue
            at_y = at[y]
            shared = at_x.keys() & at_y.keys()
            own = colors.get((x, y))
            if own is not None and (at_x[own] == 1 or at_y[own] == 1):
                shared.discard(own)  # g is the only edge of its color at x or y
            if shared:
                return True
    return False


def shade_rounds_reference(n, arcs, round_of):
    """The (round, shade) form of _shade_rounds, its reference: each round's
    auxiliary graph on its heads, joining a to w for an arc a -> w between
    heads and a to the head of a tail x for an arc a -> x, is shaded by first
    fit along its smallest-last order; the (round, shade) pairs are then
    numbered 1, 2, ... in sorted order.  Returns the normalized edge -> color map."""
    out = [set() for _ in range(n)]
    for u, v in arcs:
        out[u].add(v)
    by_round = {}
    for (x, a), c in round_of.items():
        by_round.setdefault(c, {})[x] = a
    colored = {}
    for c in sorted(by_round):
        head_of = by_round[c]
        heads = sorted(set(head_of.values()))
        index = {a: i for i, a in enumerate(heads)}
        pairs = set()
        for a in heads:
            for w in out[a]:
                if w in index:
                    pairs.add(tuple(sorted((index[a], index[w]))))
                elif w in head_of and head_of[w] != a:
                    pairs.add(tuple(sorted((index[a], index[head_of[w]]))))
        order, _ = degeneracy_order_reference(len(heads), sorted(pairs))
        shades = first_fit_reference(len(heads), sorted(pairs), order)
        for x, a in head_of.items():
            colored[tuple(sorted((x, a)))] = (c, shades[index[a]])
    rank = {pair: i + 1 for i, pair in enumerate(sorted(set(colored.values())))}
    return {e: rank[pair] for e, pair in colored.items()}


def oriented_from_injective_reference(D, coloring):
    """The pair coloring vertex by vertex: the sorted distinct colors on its
    out-arcs and on its in-arcs, the in-arcs read from D.arcs(), each color
    read through EdgeColoring's own edge lookup, then canonical ids of the pairs."""
    pairs = {}
    arcs = D.arcs()
    for v in range(D.n):
        outgoing = sorted({coloring[(v, w)] for w in D.out_neighbors(v)})
        incoming = sorted({coloring[(u, w)] for u, w in arcs if w == v})
        pairs[v] = (tuple(outgoing), tuple(incoming))
    return VertexColoring(canonical_color_ids(pairs))


def verify_oriented_coloring_reference(D, coloring):
    """The oriented verifier over the sorted arcs: after the domain check, no
    arc has equal end colors and no ordered color pair occurs with its reverse."""
    check_domain(D, coloring)
    pairs = set()
    for u, v in D.arcs():
        a, b = coloring[u], coloring[v]
        if a == b:
            return False
        pairs.add((a, b))
    return all((b, a) not in pairs for a, b in pairs)
