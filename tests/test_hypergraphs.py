import random
import warnings
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injcolor import (
    OrientedGraph,
    UndirectedGraph,
    degeneracy_order,
    exact_chromatic_number,
    greedy_color,
    neighborhood_hypergraph,
    peel_color_clique_graph,
)
from .bruteforce import clique_graph


def test_neighborhood_hypergraph_examples():
    D = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert neighborhood_hypergraph(D, [0]) == ([frozenset({0, 1, 2})], [1, 2, 3])

    twin = OrientedGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    hyperedges, heads = neighborhood_hypergraph(twin, [0, 1])
    assert hyperedges == [frozenset({0, 1})] * 2 and heads == [2, 3]


def test_hyperedges_number_only_the_heads():
    # 1, 4 and 6 lie outside X and outside N+(X); 6 -> 0 enters X
    D = OrientedGraph(7, [(0, 3), (0, 5), (2, 5), (4, 1), (6, 4), (6, 0)])
    hyperedges, heads = neighborhood_hypergraph(D, [2, 0])
    assert heads == [3, 5] == sorted(D.out_neighbors(0) | D.out_neighbors(2))
    assert hyperedges == [frozenset({0, 1}), frozenset({1})]


def test_without_out_arcs_everything_is_empty():
    sinks = OrientedGraph(3, [(1, 0), (2, 0)])
    assert neighborhood_hypergraph(sinks, [0]) == ([], [])
    assert neighborhood_hypergraph(sinks, []) == ([], [])
    empty = peel_color_clique_graph([])
    assert empty.colors == {} and empty.k == 0


def test_clique_graph_examples():
    tri = clique_graph([frozenset({0, 1, 2})])
    assert tri.n == 3 and tri.m == 3
    two = clique_graph([frozenset({0, 1, 2}), frozenset({3, 4, 5})])
    assert two.n == 6 and two.m == 6
    chain = clique_graph([frozenset({0, 1}), frozenset({1, 2})])
    assert set(chain.edges()) == {(0, 1), (1, 2)}
    single = clique_graph([frozenset({0}), frozenset({1})])
    assert single.n == 2 and single.m == 0


def test_peel_color_examples():
    assert peel_color_clique_graph([frozenset({0, 1, 2})]).k == 3
    assert peel_color_clique_graph([frozenset({0, 1, 2}), frozenset({3, 4, 5})]).k == 3
    star = [frozenset({0, i}) for i in (1, 2, 3)]
    assert peel_color_clique_graph(star).k == 2
    assert exact_chromatic_number(clique_graph(star)) == 2


def test_peel_color_always_proper():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 9)
        hyperedges = [
            frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
            for _ in range(rng.randint(0, 6))
        ]
        coloring = peel_color_clique_graph(hyperedges)
        K = clique_graph(hyperedges)
        assert set(coloring.colors) == set(range(K.n))
        for u, v in K.edges():
            assert coloring[u] != coloring[v]


@st.composite
def independent_sets(draw):
    """An oriented graph on n <= 9 vertices and a maximal independent set X
    of it, grown greedily along a drawn vertex order."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [p for p in combinations(range(n), 2) if draw(st.booleans())]
    D = OrientedGraph(n, [(u, v) if draw(st.booleans()) else (v, u) for u, v in pairs])
    und = D.underlying()
    X: list[int] = []
    for v in draw(st.permutations(range(n))):
        if not any(und.has_edge(v, x) for x in X):
            X.append(v)
    return D, X


@settings(max_examples=100, deadline=None)
@given(independent_sets())
def test_clique_graph_equals_co_outneighbor_graph(case):
    # the clique graph of the out-neighborhood hyperedges joins two heads
    # exactly when some x in X points at both
    D, X = case
    hyperedges, heads = neighborhood_hypergraph(D, X)
    K = clique_graph(hyperedges)
    direct = {p for x in X for p in combinations(sorted(D.out_neighbors(x)), 2)}
    assert {(heads[a], heads[b]) for a, b in K.edges()} == direct


@settings(max_examples=300, deadline=None)
@given(independent_sets())
def test_peel_on_the_heads_matches_the_peel_on_all_vertices_outside_x(case):
    """The heads-only peel gives every head the color it gets when the clique
    graph spans all of V minus X; the other vertices there are isolated."""
    D, X = case
    xset = set(X)
    outside = [v for v in range(D.n) if v not in xset]
    index = {v: i for i, v in enumerate(outside)}
    reference = UndirectedGraph(len(outside), (
        (index[u], index[v]) for x in X for u, v in combinations(sorted(D.out_neighbors(x)), 2)
    ))
    expected = greedy_color(reference, degeneracy_order(reference))
    hyperedges, heads = neighborhood_hypergraph(D, X)
    coloring = peel_color_clique_graph(hyperedges)
    assert [coloring[i] for i in range(len(heads))] == [expected[index[h]] for h in heads]
    if heads:
        assert coloring.k == expected.k


def test_peel_warns_on_dishonest_genus():
    # a huge clique from size-2 edges: the peel degree n-1 sails past the
    # 20 * r^2 * sqrt(g) - 1 threshold (113 at r=2, g=2)
    hyperedges = [frozenset(p) for p in combinations(range(120), 2)]
    with pytest.warns(UserWarning):
        peel_color_clique_graph(hyperedges, genus=2)


@pytest.mark.parametrize("hyperedges", [[], [frozenset()]], ids=["none", "empty"])
def test_peel_without_a_nonempty_hyperedge_does_not_warn(hyperedges):
    # r = 0 puts the threshold at -1, which a peel degree of 0 would exceed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert peel_color_clique_graph(hyperedges, genus=2).k == 0
