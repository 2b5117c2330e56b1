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
    canonical_color_ids,
    complete_graph,
    cycle,
    degeneracy_order,
    edges_conflict,
    greedy_color,
    is_induced_star_forest,
    orient_by_ordering,
    path,
    random_degenerate_graph,
)
from .bruteforce import degeneracy_order_reference, exact_degeneracy, min_chromatic


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
    assert D.in_neighbors(1) == {0}
    assert D.max_out_degree == 1
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        OrientedGraph(2, [(1, 1)])


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
    pos = ordering.positions()
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
    assert (ordering.order, ordering.d) == degeneracy_order_reference(G.n, G.edges())


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
