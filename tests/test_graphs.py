import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from injcolor import (
    EdgeColoring,
    OrientedGraph,
    UndirectedGraph,
    VertexColoring,
    VertexOrdering,
    canonical_color_ids,
    complete_graph,
    cycle,
    degeneracy_order,
    edges_conflict,
    greedy_color,
    injective_color_degenerate,
    is_induced_star_forest,
    orient_by_ordering,
    path,
    random_degenerate_graph,
    random_genus_lowerbound,
    two_dipath_constraint_graph,
)
from injcolor.graphs import first_fit, has_color_conflict, smallest_last
from .bruteforce import (
    degeneracy_order_reference,
    exact_degeneracy,
    first_fit_reference,
    has_color_conflict_reference,
    min_chromatic,
    two_dipath_pairs,
)


@st.composite
def small_graphs(draw, max_n=7, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return UndirectedGraph(n, edges)


def test_undirected_invariants():
    G = UndirectedGraph(3, [(0, 1), (1, 0), (1, 2)])
    assert G.m == 2  # duplicates collapse
    assert G.has_edge(1, 0) and G.has_edge(2, 1)
    with pytest.raises(ValueError):
        UndirectedGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        UndirectedGraph(2, [(0, 2)])


def test_oriented_invariants():
    D = OrientedGraph(3, [(0, 1), (1, 2)])
    assert D.m == 2
    assert D.out_neighbors(0) == {1}
    assert [u for u, v in D.arcs() if v == 1] == [0]
    assert D.max_out_degree == 1
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        OrientedGraph(2, [(1, 1)])


def _matches_the_triple_scan(D):
    C, expected = two_dipath_constraint_graph(D), two_dipath_pairs(D.n, D.arcs())
    assert (C, C.m) == (UndirectedGraph(D.n, expected), len(expected))


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=10, min_n=0), st.randoms(use_true_random=False))
def test_two_dipath_constraint_graph_matches_the_triple_scan(G, rng):
    _matches_the_triple_scan(
        OrientedGraph(G.n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in G.edges()]))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**16))
def test_two_dipath_constraint_graph_matches_the_triple_scan_on_drawn_graphs(seed):
    _matches_the_triple_scan(random_genus_lowerbound(40, seed))


def test_arcs_out_of():
    D = OrientedGraph(4, [(0, 1), (2, 1), (2, 3)])
    assert D.arcs_out_of([0, 2]) == [(0, 1), (2, 1), (2, 3)]
    assert D.arcs_out_of([1]) == []


def test_degeneracy_examples():
    assert degeneracy_order(complete_graph(4)).d == 3
    assert degeneracy_order(path(4)).d == 1
    assert degeneracy_order(cycle(5)).d == 2


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=7))
def test_degeneracy_matches_bruteforce(G):
    ordering = degeneracy_order(G)
    assert sorted(ordering.order) == list(range(G.n))
    assert ordering.d == exact_degeneracy(G.n, G.edges())
    pos = {v: i for i, v in enumerate(ordering.order)}
    for v in range(G.n):
        back = sum(1 for w in G.neighbors(v) if pos[w] < pos[v])
        assert back <= ordering.d


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=25, min_n=0))
@example(UndirectedGraph(0))
@example(UndirectedGraph(1))
@example(UndirectedGraph(7, [(2, 5), (5, 6)]))
@example(complete_graph(9))
def test_degeneracy_order_is_the_definitional_order(G):
    ordering = degeneracy_order(G)
    reference = degeneracy_order_reference(G.n, G.edges())
    assert (ordering.order, ordering.d) == reference
    assert smallest_last([set(G.neighbors(v)) for v in range(G.n)]) == reference


def test_degeneracy_order_is_the_definitional_order_on_larger_graphs():
    rng = random.Random(11)
    for seed in range(8):
        n = rng.randrange(100, 400)
        G = (random_degenerate_graph(n, rng.randrange(1, 6), seed) if seed % 2 else
             UndirectedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.02]))
        ordering = degeneracy_order(G)
        assert (ordering.order, ordering.d) == degeneracy_order_reference(G.n, G.edges())


def test_degeneracy_matches_networkx_core_number():
    # the brute force above stops at n = 7; networkx's k-core decomposition
    # checks graphs of a few hundred vertices
    rng = random.Random(5)
    for seed in range(30):
        n = rng.randrange(50, 300)
        if seed % 2:
            G = random_degenerate_graph(n, rng.randrange(1, 6), seed)
        else:
            p = rng.uniform(0.005, 0.08)
            G = UndirectedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < p])
        H = nx.Graph(G.edges())
        H.add_nodes_from(range(n))
        assert degeneracy_order(G).d == max(nx.core_number(H).values())


def test_orient_by_ordering_examples():
    P3 = path(3)
    ordering = degeneracy_order(P3)
    # use an explicit natural order
    from injcolor import VertexOrdering

    natural = VertexOrdering((0, 1, 2), ordering.d)
    D = orient_by_ordering(P3, natural)
    assert set(D.arcs()) == {(1, 0), (2, 1)}

    K3 = complete_graph(3)
    D3 = orient_by_ordering(K3, VertexOrdering((0, 1, 2), 2))
    assert set(D3.arcs()) == {(1, 0), (2, 0), (2, 1)}
    assert D3.max_out_degree == 2


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_orientation_outdegree_bounded_by_degeneracy(G):
    ordering = degeneracy_order(G)
    D = orient_by_ordering(G, ordering)
    assert D.max_out_degree <= ordering.d
    assert D.m == G.m


def test_greedy_color_examples():
    K4 = complete_graph(4)
    assert greedy_color(K4, degeneracy_order(K4)).k == 4

    star = UndirectedGraph(7, [(0, i) for i in range(1, 7)])
    from injcolor import VertexOrdering

    leaves_first = VertexOrdering((1, 2, 3, 4, 5, 6, 0), 1)
    assert greedy_color(star, leaves_first).k == 2

    C5 = cycle(5)
    natural = VertexOrdering((0, 1, 2, 3, 4), 2)
    coloring = greedy_color(C5, natural)
    assert coloring.k == 3  # odd cycle needs 3; frozen via brute-force chromatic
    assert min_chromatic(5, C5.edges()) == 3


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_greedy_color_proper_and_bounded(G):
    ordering = degeneracy_order(G)
    coloring = greedy_color(G, ordering)
    for u, v in G.edges():
        assert coloring[u] != coloring[v]
    assert coloring.k <= ordering.d + 1


def test_edges_conflict_examples():
    K3 = complete_graph(3)
    assert edges_conflict(K3, (0, 1), (1, 2))
    P4 = path(4)
    assert not edges_conflict(P4, (0, 1), (1, 2))
    assert edges_conflict(P4, (0, 1), (2, 3))
    with pytest.raises(ValueError):
        edges_conflict(P4, (0, 1), (0, 1))


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_edges_conflict_symmetric(G):
    edges = G.edges()
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            assert edges_conflict(G, edges[i], edges[j]) == edges_conflict(G, edges[j], edges[i])


def test_is_induced_star_forest_examples():
    K3 = complete_graph(3)
    assert is_induced_star_forest(K3, [(0, 1)])
    assert not is_induced_star_forest(K3, K3.edges())
    P4 = path(4)
    assert is_induced_star_forest(P4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        is_induced_star_forest(P4, [(0, 3)])


def test_coloring_types():
    ec = EdgeColoring({(1, 0): 2, (1, 2): 2, (3, 2): 5})
    assert ec.k == 2
    assert ec[(0, 1)] == 2
    assert sorted(ec.classes()[2]) == [(0, 1), (1, 2)]
    vc = VertexColoring({0: 4, 1: 4, 2: 9})
    assert vc.k == 2 and vc[2] == 9
    assert canonical_color_ids({0: 9, 1: 4, 2: 9}) == {0: 2, 1: 1, 2: 2}


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=25, min_n=0), st.randoms(use_true_random=False))
def test_first_fit_matches_greedy_color_and_the_definition(G, rng):
    """Along the degeneracy order and along an arbitrary one; the colors are
    keyed in order and use exactly 1..max."""
    shuffled = list(range(G.n))
    rng.shuffle(shuffled)
    adj = [set(G.neighbors(v)) for v in range(G.n)]
    for order in (degeneracy_order(G).order, tuple(shuffled)):
        colors = first_fit(adj, order)
        assert colors == greedy_color(G, VertexOrdering(order, 0)).colors
        assert colors == first_fit_reference(G.n, G.edges(), order)
        assert list(colors) == list(order)
        assert set(colors.values()) == set(range(1, max(colors.values(), default=0) + 1))


@st.composite
def partially_colored_graphs(draw, max_n=40, keeps=(0.0, 0.3, 0.7, 1.0)):
    """A graph on n <= max_n vertices of drawn density, and colors 1..k (k <= 4)
    on a drawn part of its edges: each edge is kept with a probability drawn
    from keeps."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.sampled_from((0.05, 0.15, 0.4, 0.8)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    G = UndirectedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    k = draw(st.integers(min_value=1, max_value=4))
    keep = draw(st.sampled_from(keeps))
    return G, {e: rng.randint(1, k) for e in G.edges() if rng.random() < keep}


@settings(max_examples=300, deadline=None)
@given(partially_colored_graphs(keeps=(1.0,)))
def test_color_conflict_kernel_matches_the_dict_reference_on_partial_colorings(case):
    """The kernel takes total colorings only, so every edge is kept."""
    G, colors = case
    assert has_color_conflict(G, colors) == has_color_conflict_reference(G, colors)


@settings(max_examples=200, deadline=None)
@given(partially_colored_graphs())
@example((path(4), dict.fromkeys(path(4).edges(), 1)))  # P4 with its middle edge in S
@example((path(4), {(0, 1): 1, (2, 3): 1, (1, 2): 2}))  # and without it
@example((complete_graph(3), {(0, 1): 1, (0, 2): 1, (1, 2): 2}))
@example((UndirectedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),  # a star whose leaves are joined
          {(0, 1): 1, (0, 2): 1, (0, 3): 1}))
@example((path(4), {}))  # the empty set
def test_is_induced_star_forest_matches_the_dict_reference(case):
    """Each color class of a partial coloring, against the reference; the
    class with a non-edge added is refused."""
    G, colors = case
    for c in (1, 2):
        edge_set = [e for e, color in colors.items() if color == c]
        assert is_induced_star_forest(G, edge_set) == (
            not has_color_conflict_reference(G, dict.fromkeys(edge_set, 0)))
        stray = next(((u, v) for u in range(G.n) for v in range(u + 1, G.n)
                      if not G.has_edge(u, v)), None)
        if stray is not None:
            with pytest.raises(ValueError, match="is not an edge"):
                is_induced_star_forest(G, [*edge_set, stray[::-1]])


def test_color_conflict_kernel_fixed_cases():
    assert not has_color_conflict(UndirectedGraph(0), {})
    assert not has_color_conflict(UndirectedGraph(5), {})
    one = UndirectedGraph(2, [(0, 1)])
    assert not has_color_conflict(one, {(0, 1): 7})
    K4, P4 = complete_graph(4), path(4)
    assert has_color_conflict(K4, dict.fromkeys(K4.edges(), 1))
    assert not has_color_conflict(K4, {e: i for i, e in enumerate(K4.edges(), start=1)})
    # One class is conflict-free exactly when it is an induced star forest: a
    # star is, two stars joined by an edge of another color are not.
    star = UndirectedGraph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    assert not has_color_conflict(star, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (3, 4): 2})
    assert has_color_conflict(star, {(0, 1): 1, (3, 4): 1, (0, 2): 2, (0, 3): 3})
    # Colors past int64, which coloring JSON allows, keep their identity.
    for big in (2**63, 2**64 + 5, 2**70):
        assert has_color_conflict(P4, {(0, 1): big, (1, 2): 1, (2, 3): big})
        assert not has_color_conflict(P4, {(0, 1): big, (1, 2): big + 1, (2, 3): 2**63 - 1})
        assert not has_color_conflict(P4, {(0, 1): big, (1, 2): big, (2, 3): 1})


def test_color_conflict_kernel_on_a_rainbow_double_star():
    """Two hubs joined by an edge, with 9,000 leaves each and every edge its own
    color: the hub edge alone needs more lookups than one block holds."""
    leaves = 9000
    edges = [(0, 1)] + [(h, 2 + 2 * i + h) for i in range(leaves) for h in (0, 1)]
    G = UndirectedGraph(2 + 2 * leaves, edges)
    rainbow = {e: i for i, e in enumerate(G.edges())}
    assert not has_color_conflict(G, rainbow)
    a, b = (0, 2 * leaves), (1, 2 * leaves + 1)  # the last leaf edge at each hub
    assert has_color_conflict(G, {**rainbow, a: rainbow[b]})  # joined by the hub edge
    assert not has_color_conflict(G, {**rainbow, (0, 2): rainbow[(0, 1)]})  # a star at 0


def test_color_conflict_kernel_keys_fit_past_int32():
    """n * k above 2^31 packs the keys in int64.  A planted pair of equal
    colors on the ends of a path is found, and nothing else is."""
    pairs = 40000
    G = UndirectedGraph(2 * pairs + 4, [(2 * i, 2 * i + 1) for i in range(pairs)]
                        + [(2 * pairs, 2 * pairs + 1), (2 * pairs + 1, 2 * pairs + 2),
                           (2 * pairs + 2, 2 * pairs + 3)])
    assert G.n * G.m > 2**31
    rainbow = {e: i for i, e in enumerate(G.edges())}
    assert not has_color_conflict(G, rainbow)
    first, last = (2 * pairs, 2 * pairs + 1), (2 * pairs + 2, 2 * pairs + 3)
    assert has_color_conflict(G, {**rainbow, last: rainbow[first]})

    class Huge:  # only the sizes are read before the refusal
        n, m = 2**62, 2

    with pytest.raises(ValueError, match="overflow"):
        has_color_conflict(Huge(), {(0, 1): 1, (2, 3): 2})


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_color_conflict_kernel_finds_a_planted_conflict(seed):
    """As the degenerate workload plants one: edge e = uv takes the color of an
    edge f = wx that the edge g = vw joins to it."""
    G = random_degenerate_graph(2000, 3, seed)
    colors = injective_color_degenerate(G, seed).colors
    assert not has_color_conflict(G, colors) and not has_color_conflict_reference(G, colors)
    rng = random.Random(seed)
    for _ in range(5):
        u, v = rng.choice(sorted(colors))
        w = rng.choice(sorted(G.neighbors(v) - {u}))
        x = rng.choice(sorted(G.neighbors(w) - {v}))
        e, f = tuple(sorted((u, v))), tuple(sorted((w, x)))
        if e == f:
            continue
        planted = {**colors, e: colors[f]}
        assert has_color_conflict(G, planted) and has_color_conflict_reference(G, planted)
