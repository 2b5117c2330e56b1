import random
from itertools import combinations

import pytest

from injcolor import (
    Hypergraph,
    OrientedGraph,
    clique_graph,
    exact_chromatic_number,
    neighborhood_hypergraph,
    peel_color_clique_graph,
)


def test_hypergraph_invariants():
    H = Hypergraph(4, [{0, 1}, {1, 2, 3}, {1, 2, 3}])
    assert H.max_edge_size == 3
    assert len(H.edges) == 3  # multiset semantics
    with pytest.raises(ValueError):
        Hypergraph(2, [set()])
    with pytest.raises(ValueError):
        Hypergraph(2, [{0, 5}])


def test_neighborhood_hypergraph_examples():
    D = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])
    H, originals = neighborhood_hypergraph(D, [0])
    assert H.n == 3 and originals == [1, 2, 3]
    assert H.edges == (frozenset({0, 1, 2}),)

    sinks = OrientedGraph(3, [(1, 0), (2, 0)])
    H2, _ = neighborhood_hypergraph(sinks, [0])
    assert H2.edges == ()

    twin = OrientedGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    H3, _ = neighborhood_hypergraph(twin, [0, 1])
    assert len(H3.edges) == 2 and H3.edges[0] == H3.edges[1]


def test_clique_graph_examples():
    tri = clique_graph(Hypergraph(5, [{0, 1, 2}]))
    assert tri.m == 3 and tri.degree(3) == 0
    two = clique_graph(Hypergraph(6, [{0, 1, 2}, {3, 4, 5}]))
    assert two.m == 6
    chain = clique_graph(Hypergraph(3, [{0, 1}, {1, 2}]))
    assert set(chain.edges()) == {(0, 1), (1, 2)}


def test_peel_color_examples():
    assert peel_color_clique_graph(Hypergraph(3, [{0, 1, 2}])).k == 3
    assert peel_color_clique_graph(Hypergraph(6, [{0, 1, 2}, {3, 4, 5}])).k == 3
    star = Hypergraph(4, [{0, 1}, {0, 2}, {0, 3}])
    coloring = peel_color_clique_graph(star)
    assert coloring.k == 2
    assert exact_chromatic_number(clique_graph(star)) == 2


def test_peel_color_always_proper():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 9)
        edges = [
            set(rng.sample(range(n), rng.randint(1, min(3, n))))
            for _ in range(rng.randint(0, 6))
        ]
        H = Hypergraph(n, edges)
        coloring = peel_color_clique_graph(H)
        K = clique_graph(H)
        for u, v in K.edges():
            assert coloring[u] != coloring[v]


def test_clique_graph_equals_co_outneighbor_graph():
    # the clique graph of the out-neighborhood hypergraph joins u, v exactly
    # when some x in X points at both
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(4, 10)
        arcs = []
        for u, v in combinations(range(n), 2):
            r = rng.random()
            if r < 0.4:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        D = OrientedGraph(n, arcs)
        und = D.underlying()
        X = []
        for v in range(n):
            if all(not und.has_edge(v, x) for x in X):
                X.append(v)
        H, originals = neighborhood_hypergraph(D, X)
        K = clique_graph(H)
        direct = set()
        for x in X:
            for u, v in combinations(sorted(D.out_neighbors(x)), 2):
                direct.add((u, v))
        mapped = {tuple(sorted((originals[a], originals[b]))) for a, b in K.edges()}
        assert mapped == direct


def test_peel_warns_on_dishonest_genus():
    # a huge clique from size-2 edges: the peel degree n-1 sails past the
    # 20 * r^2 * sqrt(g) - 1 threshold (113 at r=2, g=2)
    n = 120
    H = Hypergraph(n, [{i, j} for i, j in combinations(range(n), 2)])
    with pytest.warns(UserWarning):
        peel_color_clique_graph(H, genus=2)
